// Bench-side tracing: spans recorded from the benchmark's own files around
// every public library call it makes. Each span keeps its name, start,
// end, parent span, and the request it belongs to; spans of one request
// share a request id. Spans live in per-thread memory and are collected
// once the workload ends. While tracing is off a Span costs one relaxed
// atomic load.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

struct Record {
  const char* name = "";     ///< string literal
  std::uint64_t id = 0;      ///< unique per span
  std::uint64_t parent = 0;  ///< enclosing span on the same thread, 0 = root
  std::uint64_t request = 0; ///< request id shared by a request's spans
  std::int64_t start_ns = 0; ///< steady_clock, relative to enable()
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

void enable(bool on);

/// A fresh request id (never 0).
std::uint64_t next_request();

class Span {
 public:
  /// `request` 0 inherits the enclosing span's request id.
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  Record rec_;
  Span* outer_ = nullptr;
};

/// Every span closed so far, from all threads. Call after the threads that
/// recorded them have been joined.
std::vector<Record> collect();

/// Aggregate of all spans sharing one name.
struct NameStats {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;      ///< total minus time covered by child spans
  double children_s = 0;  ///< summed duration of direct children
  std::uint64_t with_children = 0;  ///< instances that had children
  double parents_s = 0;   ///< duration of those instances
};

std::vector<NameStats> summarize(const std::vector<Record>& spans);

/// Write spans and their per-name summary as JSON to `path`.
void write_json(const std::string& path, const std::vector<Record>& spans,
                const std::vector<NameStats>& summary);

}  // namespace trace
}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
