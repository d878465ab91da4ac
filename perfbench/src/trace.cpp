#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/obs.h"

namespace perfbench {
namespace trace {
namespace {

using clock = std::chrono::steady_clock;

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_request{1};
std::atomic<std::uint32_t> g_next_thread{0};
const clock::time_point g_epoch = clock::now();

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Record> records;
};

// Buffers are shared with the registry so they outlive their threads;
// collect() runs after every recording thread has been joined.
std::mutex g_mu;
std::vector<std::shared_ptr<Buffer>> g_buffers;  // guarded by g_mu

Buffer& local_buffer() {
  thread_local std::shared_ptr<Buffer> buf = [] {
    auto b = std::make_shared<Buffer>();
    b->thread = g_next_thread.fetch_add(1);
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(b);
    return b;
  }();
  return *buf;
}

thread_local Span* tl_current = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              g_epoch)
      .count();
}

}  // namespace

void enable(bool on) { g_on.store(on, std::memory_order_relaxed); }

std::uint64_t next_request() { return g_next_request.fetch_add(1); }

Span::Span(const char* name, std::uint64_t request)
    : on_(g_on.load(std::memory_order_relaxed)) {
  if (!on_) return;
  outer_ = tl_current;
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = outer_ ? outer_->rec_.id : 0;
  rec_.request = request ? request : (outer_ ? outer_->rec_.request : 0);
  tl_current = this;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = now_ns();
  tl_current = outer_;
  Buffer& buf = local_buffer();
  rec_.thread = buf.thread;
  buf.records.push_back(rec_);
}

std::vector<Record> collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Record> all;
  for (const auto& b : g_buffers)
    all.insert(all.end(), b->records.begin(), b->records.end());
  return all;
}

std::vector<NameStats> summarize(const std::vector<Record>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Children are nested on their parent's thread, so their durations
  // never overlap and their sum is the part of the parent they cover.
  std::vector<double> child_s(spans.size(), 0.0);
  std::vector<char> has_child(spans.size(), 0);
  for (const Record& r : spans) {
    if (r.parent == 0) continue;
    auto it = index.find(r.parent);
    if (it == index.end()) continue;
    child_s[it->second] += 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
    has_child[it->second] = 1;
  }
  std::map<std::string, NameStats> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Record& r = spans[i];
    NameStats& s = by_name[r.name];
    s.name = r.name;
    const double d = 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
    ++s.count;
    s.total_s += d;
    s.self_s += d - child_s[i];
    if (has_child[i]) {
      ++s.with_children;
      s.children_s += child_s[i];
      s.parents_s += d;
    }
  }
  std::vector<NameStats> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  return out;
}

void write_json(const std::string& path, const std::vector<Record>& spans,
                const std::vector<NameStats>& summary) {
  std::string out = "{\"schema\":\"perfbench-trace-v1\",\"summary\":[";
  bool first = true;
  for (const NameStats& s : summary) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    transpwr::obs::json_append_escaped(out, s.name);
    out += "\",\"count\":" + std::to_string(s.count) + ",\"total_s\":";
    transpwr::obs::json_append_double(out, s.total_s);
    out += ",\"self_s\":";
    transpwr::obs::json_append_double(out, s.self_s);
    out += ",\"children_s\":";
    transpwr::obs::json_append_double(out, s.children_s);
    out += ",\"parents_s\":";
    transpwr::obs::json_append_double(out, s.parents_s);
    out += '}';
  }
  // One array per span: name, id, parent, request, start_ns, end_ns, thread.
  out += "],\"span_fields\":[\"name\",\"id\",\"parent\",\"request\","
         "\"start_ns\",\"end_ns\",\"thread\"],\"spans\":[";
  first = true;
  for (const Record& r : spans) {
    if (!first) out += ',';
    first = false;
    out += "[\"";
    transpwr::obs::json_append_escaped(out, r.name);
    out += "\"," + std::to_string(r.id) + ',' + std::to_string(r.parent) +
           ',' + std::to_string(r.request) + ',' +
           std::to_string(r.start_ns) + ',' + std::to_string(r.end_ns) + ',' +
           std::to_string(r.thread) + ']';
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return;
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

}  // namespace trace
}  // namespace perfbench
