// Shared declarations of the repository benchmark (see perfbench/README.md).
#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/obs.h"
#include "store/archive.h"
#include "trace.h"

namespace perfbench {

using transpwr::Dims;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";  ///< archives, trace files
  std::string git_sha = "unknown";
};

/// One generated input field.
struct Field {
  std::string name;
  Dims dims;
  std::vector<float> values;

  std::size_t bytes() const { return values.size() * sizeof(float); }
};

// --- inputs.cpp ------------------------------------------------------------

/// NYX-like `dark_matter_density` and `velocity_x`, 256^3 each.
std::vector<Field> roundtrip_fields(std::uint64_t seed);
/// NYX-like density, 4096x64x64: the served dataset.
Field served_field(std::uint64_t seed);

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one workload invocation reports. `attempted`/`failed` count
/// timed operations; `assert_that` records regime and consistency checks,
/// any of which failing makes the run incorrect.
class Report {
 public:
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};

  /// Count one failed operation and keep its reason (first few only).
  void fail(const std::string& why);
  void assert_that(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// Working-set and regime facts (raw bytes, cache budget, hits, ...).
  void fact(const std::string& name, double value);

  bool correct() const;

  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, double>> facts;
  std::vector<std::string> problems;  ///< failed operations / assertions

 private:
  mutable std::mutex mu_;
  bool asserts_ok_ = true;
};

// --- small helpers ---------------------------------------------------------

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Hardware threads (the `nproc` every workload sizes itself to).
std::size_t nproc();

/// mkdir -p for one level below an existing directory; throws on failure.
void make_dir(const std::string& path);
/// rm -r of a directory holding only regular files.
void remove_dir(const std::string& path);
std::uint64_t file_size(const std::string& path);

/// Pointwise check of a reconstruction against its input with the oracle
/// envelope (br*|x| + 2 ulp, zeros exact). Returns the number of points
/// outside the envelope; `*modified_zeros` receives zeros that came back
/// nonzero.
std::uint64_t bound_violations(const std::vector<float>& original,
                               const std::vector<float>& decoded,
                               double bound, std::uint64_t* modified_zeros);

/// Per-path span totals: the difference of two obs registry snapshots,
/// summed over however many intervals were added.
class ObsTotals {
 public:
  void add(const transpwr::obs::Snapshot& before,
           const transpwr::obs::Snapshot& after);
  /// Seconds and count summed over every span path ending in `suffix`.
  transpwr::obs::SpanStat span(const std::string& suffix) const;
  std::uint64_t counter(const std::string& name) const;

 private:
  std::map<std::string, transpwr::obs::SpanStat> spans_;
  std::map<std::string, std::uint64_t> counters_;
};

// --- snapshot dump and load (roundtrip.cpp) ---------------------------------

/// The pointwise relative bound br every workload compresses with.
inline constexpr double kRelBound = 1e-3;

/// SZ_T, br = kRelBound, base 2, `rows_per_chunk`-row chunks, nproc threads.
transpwr::store::DatasetOptions sz_t_options(std::size_t rows_per_chunk);

/// Write every field to a fresh archive at `path` (ArchiveWriter,
/// add_dataset per field, finish), each public call in a bench span.
/// Returns the wall seconds of the whole dump.
double dump_snapshot(const std::string& path, const std::vector<Field>& fields,
                     const transpwr::store::DatasetOptions& opt);

/// Open a new reader on `path` and load every field's dataset into
/// `out`, each public call in a bench span. Returns the wall seconds of
/// open + loads; `identity` receives the reader's cache identity.
double load_snapshot(const std::string& path, const std::vector<Field>& fields,
                     std::vector<std::vector<float>>* out,
                     std::uint64_t* identity = nullptr);

// --- the shared serve client mix (serve.cpp) -------------------------------

/// Rows per query range of the client mix and the local query replays.
inline constexpr std::size_t kQueryRows = 64;

struct MixConfig {
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;
  std::string archive;   ///< archive file name inside the served directory
  std::string dataset;
  std::size_t rows = 0;        ///< dataset rows (slowest dimension)
  std::size_t row_elems = 0;   ///< elements per row
  std::size_t roi_rows = 8;    ///< rows per read_rows / HTTP request
  /// Query ranges start at multiples of this many rows (1: anywhere).
  std::size_t query_align = 1;
  /// Threshold of the `count gt:` queries.
  double count_threshold = 1.0;
  std::uint64_t seed = 1;
  /// Measured phase length, after a 1 s warm-up; it runs on (up to 3x)
  /// until it has 2000 read_rows samples for report_mix_metrics.
  double seconds = 1;
  /// The dataset as a local ArchiveReader::load returned it; served
  /// payloads are byte-compared against it.
  const std::vector<float>* reference = nullptr;
};

struct QuerySample {
  bool count = true;  ///< count_where gt:threshold, else aggregate
  double threshold = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = 0;
  std::uint64_t matching = 0, total = 0;    // count
  double min = 0, max = 0, sum = 0;         // aggregate
  std::uint64_t agg_count = 0, finite = 0;  // aggregate
};

/// One completed request: when it completed (seconds since the phase
/// began) and its client-side latency.
struct Sample {
  double end_s = 0;
  double ms = 0;
};

struct MixResult {
  std::vector<Sample> reads;   ///< TPRQ1 read_rows
  std::vector<Sample> counts;  ///< TPRQ1 query_count
  std::vector<Sample> aggs;    ///< TPRQ1 query_aggregate
  std::vector<Sample> http;    ///< HTTP raw rows, connect included
  std::vector<QuerySample> queries;
  std::uint64_t completed = 0;  ///< every request, warm-up included
  /// The measured phase: samples that completed in [from_s, to_s).
  double from_s = 0;
  double to_s = 0;

  /// Latencies (ms) of `samples` that completed in the measured phase.
  std::vector<double> measured(const std::vector<Sample>& samples) const;
  /// Requests of every kind completed in the measured phase, per second.
  double req_per_s() const;
};

/// Closed loop of 3 client threads against a running server: 2 TPRQ1
/// connections (90% read_rows, 10% queries alternating count gt:threshold
/// and aggregate) and 1 HTTP client (raw rows, one connection per request).
MixResult run_client_mix(const MixConfig& cfg, Report& rep);

/// Re-answer a seeded sample of the served queries with a local
/// query::Executor and count mismatches as failed operations.
void verify_queries(const std::string& archive_path, const std::string& dataset,
                    const std::vector<QuerySample>& queries,
                    std::uint64_t seed, Report& rep);

/// The five serve end-to-end metrics of one client-mix phase, each over
/// every request of the measured phase: the rate, and latency quantiles
/// of all its samples pooled. A median of per-window quantiles scatters
/// more, because a window's p99 rests on a handful of samples.
void report_mix_metrics(const MixResult& mix, Report& rep);

// --- per-layer measurements (layers.cpp) -----------------------------------

/// What the isolated per-layer replays need from a workload.
struct LayerInputs {
  const std::vector<Field>* fields = nullptr;  ///< the workload's inputs
  std::string archive_path;                    ///< its (last) archive
  std::string dataset;                         ///< dataset the mix served
  std::size_t roi_rows = 8;
  std::uint16_t port = 0;  ///< live TPRQ1 server for the ping replay
  std::uint64_t seed = 1;
};

/// Isolated replays: common, kernels, core, store.summary/roi/chunk
/// decode, local queries, ping. Runs with obs recording off.
void run_layer_replays(const LayerInputs& in, Report& rep);

/// Per-layer metrics read from the obs registry: stage spans of the dumps
/// and loads (per dump / per load), and cache/query/server counters and
/// spans of the serve traffic.
void report_registry_layers(const ObsTotals& dumps, std::size_t n_dumps,
                            const ObsTotals& loads, std::size_t n_loads,
                            const ObsTotals& mix, std::uint64_t mix_requests,
                            Report& rep);

/// Collect the bench spans, print each name's count, total and self time,
/// write them to `<work_dir>/trace-<workload>-seed<N>.json`, and assert
/// that every parent's children cover 90-110% of its wall time.
std::vector<trace::NameStats> finish_trace(const Options& opt, Report& rep);

/// store.add_dataset_s / finish_s / load_s / open_us: the bench spans
/// around those public calls, mean per call.
void report_store_spans(const std::vector<trace::NameStats>& summary,
                        Report& rep);

// --- workloads -------------------------------------------------------------

void run_roundtrip(const Options& opt, Report& rep);
void run_serve(const Options& opt, bool hot, Report& rep);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H
