// snapshot_roundtrip: the paper's Fig. 6 path. Each iteration dumps one
// NYX-like snapshot (density + velocity, 256^3 float32 each) into a fresh
// TPAR file with SZ_T (br = 1e-3, base 2, 16-row chunks, nproc threads),
// then opens a new reader and loads both datasets back, and checks every
// point against the oracle envelope. A final, shorter phase serves the
// last snapshot with the same client mix as the serve workloads (1-row
// ROIs: a 256^3 row is 256 KiB), so post-hoc access is measured too.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <set>

#include "common/error.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "perfbench.h"
#include "server/server.h"
#include "store/chunk_cache.h"
#include "trace.h"

namespace perfbench {

using transpwr::Timer;
namespace obs = transpwr::obs;
namespace store = transpwr::store;

store::DatasetOptions sz_t_options(std::size_t rows_per_chunk) {
  store::DatasetOptions opt;
  opt.scheme = transpwr::Scheme::kSzT;
  opt.params.bound = kRelBound;
  opt.params.log_base = 2.0;
  opt.rows_per_chunk = rows_per_chunk;
  opt.threads = nproc();
  return opt;
}

double dump_snapshot(const std::string& path, const std::vector<Field>& fields,
                     const store::DatasetOptions& opt) {
  trace::Span span("dump");
  Timer t;
  std::unique_ptr<store::ArchiveWriter> w;
  {
    trace::Span c("store.writer_open");
    w = std::make_unique<store::ArchiveWriter>(path);
  }
  for (const Field& f : fields) {
    trace::Span c("store.add_dataset");
    w->add_dataset<float>(f.name, std::span<const float>(f.values), f.dims,
                          opt);
  }
  {
    trace::Span c("store.finish");
    w->finish();
  }
  return t.seconds();
}

double load_snapshot(const std::string& path, const std::vector<Field>& fields,
                     std::vector<std::vector<float>>* out,
                     std::uint64_t* identity) {
  trace::Span span("load");
  Timer t;
  std::unique_ptr<store::ArchiveReader> r;
  {
    trace::Span c("store.open");
    r = std::make_unique<store::ArchiveReader>(path);
  }
  if (identity) *identity = r->identity();
  out->resize(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    trace::Span c("store.load");
    Dims dims;
    (*out)[i] = r->load<float>(fields[i].name, &dims, nproc());
    if (!(dims == fields[i].dims))
      throw transpwr::StreamError("loaded dims differ from the input");
  }
  r.reset();
  return t.seconds();
}

namespace {

struct Iteration {
  double dump_s = 0;
  double load_s = 0;
  bool ok = false;
};

class Roundtrip {
 public:
  Roundtrip(const Options& opt, const std::vector<Field>& fields, Report& rep)
      : fields_(fields), rep_(rep), dopt_(sz_t_options(16)) {
    dir_ = opt.work_dir + "/roundtrip-" + std::to_string(::getpid());
    make_dir(dir_);
    for (const Field& f : fields) raw_bytes_ += f.bytes();
  }
  ~Roundtrip() { remove_dir(dir_); }
  Roundtrip(const Roundtrip&) = delete;
  Roundtrip& operator=(const Roundtrip&) = delete;

  /// One dump + load + check. With non-null totals, obs registry deltas
  /// of the dump and of the load are accumulated into them.
  Iteration iterate(ObsTotals* dumps, ObsTotals* loads);

  const std::string& dir() const { return dir_; }
  const std::string& last_path() const { return last_path_; }
  double raw_bytes() const { return static_cast<double>(raw_bytes_); }
  /// Every reader identity seen; a repeat would let a load hit the cache.
  bool identities_unique() const { return ids_.size() == loads_; }

 private:
  const std::vector<Field>& fields_;
  Report& rep_;
  const store::DatasetOptions dopt_;
  std::string dir_;
  std::uint64_t raw_bytes_ = 0;
  std::size_t next_ = 0;
  std::string last_path_;
  std::set<std::uint64_t> ids_;
  std::size_t loads_ = 0;
};

Iteration Roundtrip::iterate(ObsTotals* dumps, ObsTotals* loads) {
  trace::Span span("roundtrip.iteration", trace::next_request());
  const std::string path = dir_ + "/snapshot-" + std::to_string(next_++) +
                           ".tpar";
  Iteration it;
  rep_.attempted.fetch_add(2);  // one dump, one load
  obs::Snapshot s0, s1;
  if (dumps) s0 = obs::snapshot();
  try {
    it.dump_s = dump_snapshot(path, fields_, dopt_);
  } catch (const std::exception& e) {
    rep_.fail(std::string("dump: ") + e.what());
    rep_.fail("load skipped after a failed dump");
    return it;
  }
  if (dumps || loads) s1 = obs::snapshot();
  if (dumps) dumps->add(s0, s1);

  std::vector<std::vector<float>> out;
  try {
    std::uint64_t id = 0;
    it.load_s = load_snapshot(path, fields_, &out, &id);
    ids_.insert(id);
    ++loads_;
  } catch (const std::exception& e) {
    rep_.fail(std::string("load: ") + e.what());
    return it;
  }
  if (loads) loads->add(s1, obs::snapshot());

  it.ok = true;
  {
    trace::Span c("check.bound");
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::uint64_t zeros = 0;
      const std::uint64_t bad =
          bound_violations(fields_[i].values, out[i], kRelBound, &zeros);
      if (bad != 0 || zeros != 0) {
        rep_.fail(fields_[i].name + ": " + std::to_string(bad) +
                  " points outside the bound, " + std::to_string(zeros) +
                  " modified zeros");
        it.ok = false;
      }
    }
    out.clear();
  }
  {
    trace::Span c("fs.remove");
    if (!last_path_.empty()) std::remove(last_path_.c_str());
    last_path_ = path;
  }
  return it;
}

struct Phase {
  std::vector<double> dump_s, load_s;
  double iteration_s() const {  // mean dump + load wall per iteration
    double sum = 0;
    for (std::size_t i = 0; i < dump_s.size(); ++i)
      sum += dump_s[i] + load_s[i];
    return dump_s.empty() ? 0 : sum / static_cast<double>(dump_s.size());
  }
};

Phase timed_round_trips(Roundtrip& rt, double seconds, ObsTotals* dumps,
                        ObsTotals* loads) {
  Phase p;
  Timer wall;
  while (wall.seconds() < seconds || p.dump_s.size() < 3) {
    const Iteration it = rt.iterate(dumps, loads);
    if (!it.ok) {
      if (wall.seconds() > 3 * seconds) break;
      continue;
    }
    p.dump_s.push_back(it.dump_s);
    p.load_s.push_back(it.load_s);
  }
  return p;
}

/// Serve the last snapshot and run the client mix against it.
MixResult serve_last_snapshot(const Options& opt, Roundtrip& rt,
                              const Field& served, double seconds,
                              ObsTotals* traffic, std::uint64_t* port_out,
                              std::unique_ptr<transpwr::server::Server>* keep,
                              Report& rep) {
  // Reference for the payload checks: the served dataset, loaded locally.
  std::vector<float> reference;
  {
    store::ArchiveReader r(rt.last_path());
    reference = r.load<float>(served.name, nullptr, nproc());
  }
  transpwr::server::ServerOptions so;
  so.dir = rt.dir();
  auto srv = std::make_unique<transpwr::server::Server>(so);
  srv->start();

  MixConfig cfg;
  cfg.port = srv->port();
  cfg.http_port = srv->http_port();
  cfg.archive = rt.last_path().substr(rt.dir().size() + 1);
  cfg.dataset = served.name;
  cfg.rows = served.dims[0];
  cfg.row_elems = served.dims[1] * served.dims[2];
  cfg.roi_rows = 1;
  // Post-hoc queries answered from the chunk summaries alone: counts
  // above the density's maximum (every chunk pruned) and aggregates over
  // whole chunks. Partial 4 MiB chunks would make each query a copy and
  // scan of up to 8 MiB, whose latency swings with the host's memory
  // traffic far more than anything else the benchmark measures.
  cfg.query_align = 16;
  cfg.count_threshold = 1e5;
  cfg.seed = opt.seed;
  cfg.seconds = seconds;
  cfg.reference = &reference;

  MixResult mix;
  if (traffic) {
    obs::Snapshot before = obs::snapshot();
    obs::ScopedRecording on(true);
    trace::enable(true);
    mix = run_client_mix(cfg, rep);
    trace::enable(false);
    traffic->add(before, obs::snapshot());
  } else {
    mix = run_client_mix(cfg, rep);
  }
  verify_queries(rt.last_path(), served.name, mix.queries, opt.seed, rep);
  *port_out = cfg.port;
  *keep = std::move(srv);
  return mix;
}

}  // namespace

void run_roundtrip(const Options& opt, Report& rep) {
  const std::vector<Field> fields = roundtrip_fields(opt.seed);
  Roundtrip rt(opt, fields, rep);
  store::ScopedCacheCapacity budget(std::size_t{256} << 20);
  const double serve_seconds = std::max(2.0, 0.4 * opt.seconds);
  // A traced run compares an untraced and a traced round-trip phase, each
  // half of --seconds long.
  const double phase_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;

  // Set-up: the first pool spawn plus one untimed warm-up round trip, so
  // lazy set-up (pool, kernel dispatch, allocator, page cache for the
  // output directory) is finished before timing.
  Timer spawn;
  transpwr::global_pool();
  const double spawn_s = spawn.seconds();
  const Iteration warm = rt.iterate(nullptr, nullptr);
  if (!warm.ok) throw transpwr::Error("warm-up round trip failed");
  const double setup_s = spawn_s + warm.dump_s + warm.load_s;

  const Phase phase = timed_round_trips(rt, phase_seconds, nullptr, nullptr);
  const double archive_bytes = static_cast<double>(file_size(rt.last_path()));
  rep.fact("raw_bytes", rt.raw_bytes());
  rep.fact("archive_bytes", archive_bytes);
  rep.fact("cache_budget_bytes",
           static_cast<double>(store::ChunkCache::instance().capacity()));
  rep.fact("iterations", static_cast<double>(phase.dump_s.size()));
  rep.assert_that(rt.identities_unique(),
                  "snapshot_roundtrip: every load opens a new archive "
                  "identity, so no load can hit the cache");

  if (!opt.trace) {
    const double mib = rt.raw_bytes() / (1 << 20);
    std::vector<double> dump_mbs, load_mbs;
    for (double s : phase.dump_s) dump_mbs.push_back(mib / s);
    for (double s : phase.load_s) load_mbs.push_back(mib / s);
    rep.metric("setup_s", setup_s, "s");
    rep.metric("dump_mbs", median(dump_mbs), "MiB/s");
    rep.metric("load_mbs", median(load_mbs), "MiB/s");
    rep.metric("compression_ratio", rt.raw_bytes() / archive_bytes, "x");
    std::uint64_t port = 0;
    std::unique_ptr<transpwr::server::Server> srv;
    const MixResult mix = serve_last_snapshot(opt, rt, fields[0], serve_seconds,
                                              nullptr, &port, &srv, rep);
    report_mix_metrics(mix, rep);
    return;
  }

  // Traced run: round trips with obs recording and bench spans, then the
  // serving phase, then the isolated per-layer replays.
  ObsTotals dumps, loads, traffic;
  Phase traced;
  {
    obs::reset();
    obs::ScopedRecording on(true);
    trace::enable(true);
    traced = timed_round_trips(rt, phase_seconds, &dumps, &loads);
    trace::enable(false);
  }
  const double hits = static_cast<double>(loads.counter("archive.cache_hits"));
  rep.fact("traced.load_cache_hits", hits);
  rep.fact("traced.load_cache_misses",
           static_cast<double>(loads.counter("archive.cache_misses")));
  rep.assert_that(hits == 0, "snapshot_roundtrip: loads have 0 cache hits");

  std::uint64_t port = 0;
  std::unique_ptr<transpwr::server::Server> srv;
  const MixResult mix = serve_last_snapshot(opt, rt, fields[0], serve_seconds,
                                            &traffic, &port, &srv, rep);
  trace::enable(true);
  LayerInputs in;
  in.fields = &fields;
  in.archive_path = rt.last_path();
  in.dataset = fields[0].name;
  in.roi_rows = 1;
  in.port = static_cast<std::uint16_t>(port);
  in.seed = opt.seed;
  run_layer_replays(in, rep);
  srv.reset();
  const std::size_t n = traced.dump_s.size();
  report_registry_layers(dumps, n, loads, n, traffic, mix.completed, rep);
  const auto summary = finish_trace(opt, rep);
  report_store_spans(summary, rep);
  rep.layer("obs.overhead_pct",
            100.0 * (traced.iteration_s() / phase.iteration_s() - 1.0), "%");
}

}  // namespace perfbench
