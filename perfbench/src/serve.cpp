// serve_hot / serve_cold: an in-process server::Server on loopback, driven
// by a closed loop of 3 client threads. Also home of that client mix,
// which snapshot_roundtrip reuses for its post-hoc serving phase.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "common/error.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "net/client.h"
#include "net/socket.h"
#include "perfbench.h"
#include "query/query.h"
#include "server/server.h"
#include "store/chunk_cache.h"
#include "trace.h"

namespace perfbench {

using transpwr::Timer;
namespace net = transpwr::net;
namespace obs = transpwr::obs;
namespace store = transpwr::store;

namespace {

constexpr int kTprqClients = 2;
/// Client traffic before the measured phase: connections, allocator and
/// (on serve_cold) the cache reach their steady state.
constexpr double kWarmupS = 1.0;
/// read_rows completions a measured phase needs (20 beyond the p99).
constexpr std::size_t kMinReads = 2000;

/// The served bytes for rows [b, b + roi) must equal the local load.
bool payload_matches(const MixConfig& cfg, std::uint64_t b,
                     const std::uint8_t* bytes, std::size_t size) {
  const std::size_t n = cfg.roi_rows * cfg.row_elems;
  return size == n * sizeof(float) &&
         std::memcmp(bytes, cfg.reference->data() + b * cfg.row_elems,
                     size) == 0;
}

using Clock = std::chrono::steady_clock;

struct ClientLog {
  std::vector<Sample> reads, counts, aggs, http;
  std::vector<QuerySample> queries;
  std::uint64_t completed = 0;
};

struct Shared {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};  ///< set after `start`
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  Clock::time_point start;
};

Sample sample(const Shared& sh, double ms) {
  return {std::chrono::duration<double>(Clock::now() - sh.start).count(), ms};
}

void wait_for_go(Shared& sh) {
  sh.ready.fetch_add(1);
  while (!sh.go.load()) std::this_thread::yield();
}

void tprq_client(const MixConfig& cfg, int c, Shared& sh, ClientLog& log,
                 Report& rep) {
  std::mt19937_64 rng(cfg.seed * 1000003u + static_cast<unsigned>(c));
  std::unique_ptr<net::Client> cl;
  try {
    cl = std::make_unique<net::Client>("127.0.0.1", cfg.port);
  } catch (const std::exception& e) {
    rep.fail(std::string("tprq1 connect: ") + e.what());
  }
  log.reads.reserve(1 << 17);
  wait_for_go(sh);
  trace::Span session("client.session");
  bool next_is_count = c == 0;
  while (!sh.stop.load(std::memory_order_relaxed)) {
    if (!cl) {
      try {
        cl = std::make_unique<net::Client>("127.0.0.1", cfg.port);
      } catch (const std::exception& e) {
        rep.attempted.fetch_add(1);
        rep.fail(std::string("tprq1 reconnect: ") + e.what());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
    }
    const bool is_query = rng() % 10 == 0;
    const std::uint64_t rid = trace::next_request();
    rep.attempted.fetch_add(1);
    if (!is_query) {
      const std::uint64_t b = rng() % (cfg.rows - cfg.roi_rows + 1);
      net::RemotePayload p;
      double ms = 0;
      try {
        trace::Span s("net.read_rows", rid);
        Timer t;
        p = cl->read_rows(cfg.archive, cfg.dataset, b, b + cfg.roi_rows);
        ms = 1e3 * t.seconds();
      } catch (const std::exception& e) {
        rep.fail(std::string("read_rows: ") + e.what());
        if (dynamic_cast<const net::NetError*>(&e)) cl.reset();
        continue;
      }
      log.reads.push_back(sample(sh, ms));
      ++log.completed;
      sh.reads.fetch_add(1, std::memory_order_relaxed);
      if (rng() % 4 == 0) {  // seeded sample, outside the timed interval
        trace::Span s("check.payload", rid);
        if (p.dtype != transpwr::DataType::kFloat32 ||
            p.dims[0] != cfg.roi_rows ||
            !payload_matches(cfg, b, p.bytes.data(), p.bytes.size()))
          rep.fail("read_rows payload differs from the local load");
      }
    } else {
      QuerySample q;
      q.count = next_is_count;
      next_is_count = !next_is_count;
      q.threshold = cfg.count_threshold;
      q.row_begin = rng() % ((cfg.rows - kQueryRows) / cfg.query_align + 1) *
                    cfg.query_align;
      q.row_end = q.row_begin + kQueryRows;
      double ms = 0;
      try {
        trace::Span s(q.count ? "net.query_count" : "net.query_aggregate",
                      rid);
        Timer t;
        if (q.count) {
          auto r = cl->query_count(cfg.archive, cfg.dataset,
                                   net::QueryCmp::kGt, q.threshold,
                                   q.row_begin,
                                   q.row_end);
          q.matching = r.matching;
          q.total = r.total;
        } else {
          auto a = cl->query_aggregate(cfg.archive, cfg.dataset, q.row_begin,
                                       q.row_end);
          q.min = a.min;
          q.max = a.max;
          q.sum = a.sum;
          q.agg_count = a.count;
          q.finite = a.finite;
        }
        ms = 1e3 * t.seconds();
      } catch (const std::exception& e) {
        rep.fail(std::string("query: ") + e.what());
        if (dynamic_cast<const net::NetError*>(&e)) cl.reset();
        continue;
      }
      (q.count ? log.counts : log.aggs).push_back(sample(sh, ms));
      log.queries.push_back(q);
      ++log.completed;
    }
  }
}

/// Parse one `Connection: close` HTTP/1.1 response held in `buf`; returns
/// the body offset, or npos unless the status is 200 and Content-Length
/// matches the bytes received.
std::size_t http_body_offset(const std::vector<std::uint8_t>& buf,
                             std::size_t len) {
  const std::string_view text(reinterpret_cast<const char*>(buf.data()), len);
  const std::size_t head_end = text.find("\r\n\r\n");
  if (head_end == std::string_view::npos ||
      text.rfind("HTTP/1.1 200 ", 0) != 0)
    return std::string_view::npos;
  const std::string_view head = text.substr(0, head_end);
  const std::size_t cl = head.find("Content-Length: ");
  if (cl == std::string_view::npos) return std::string_view::npos;
  const std::size_t body = head_end + 4;
  const auto declared = std::strtoull(head.data() + cl + 16, nullptr, 10);
  return declared == len - body ? body : std::string_view::npos;
}

void http_client(const MixConfig& cfg, Shared& sh, ClientLog& log,
                 Report& rep) {
  std::mt19937_64 rng(cfg.seed * 1000003u + kTprqClients);
  const std::string prefix = "GET /archives/" + cfg.archive + "/datasets/" +
                             cfg.dataset + "/rows?range=";
  std::vector<std::uint8_t> buf(
      cfg.roi_rows * cfg.row_elems * sizeof(float) + 4096);
  log.http.reserve(1 << 16);
  wait_for_go(sh);
  trace::Span session("client.session");
  while (!sh.stop.load(std::memory_order_relaxed)) {
    const std::uint64_t b = rng() % (cfg.rows - cfg.roi_rows + 1);
    const std::string request = prefix + std::to_string(b) + ":" +
                                std::to_string(b + cfg.roi_rows) +
                                "&encoding=raw HTTP/1.1\r\nHost: perfbench\r\n"
                                "\r\n";
    const std::uint64_t rid = trace::next_request();
    rep.attempted.fetch_add(1);
    std::size_t len = 0;
    double ms = 0;
    try {
      trace::Span s("http.rows", rid);
      Timer t;
      net::Socket sock;
      {
        trace::Span c("net.connect");
        sock = net::Socket::connect("127.0.0.1", cfg.http_port);
      }
      {
        trace::Span c("net.send");
        sock.send_all(request);
      }
      {
        trace::Span c("net.recv");
        while (true) {
          if (len == buf.size()) buf.resize(buf.size() * 2);
          const std::size_t n = sock.recv_some(
              std::span<std::uint8_t>(buf.data() + len, buf.size() - len),
              /*timeout_ms=*/30000);
          if (n == 0) break;
          len += n;
        }
      }
      // Reset instead of a FIN: the server closed first, so a FIN would
      // leave its end in TIME_WAIT for 60 s. At thousands of connections
      // a second those fill the ephemeral port range within seconds, and
      // every later connect, in this run and in the next, pays for a port
      // search whose cost depends on what earlier runs left behind.
      const ::linger reset{1, 0};
      ::setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
      sock.close();
      ms = 1e3 * t.seconds();
    } catch (const std::exception& e) {
      rep.fail(std::string("http rows: ") + e.what());
      continue;
    }
    const std::size_t body = http_body_offset(buf, len);
    if (body == std::string_view::npos) {
      rep.fail("http rows: not a complete 200 response");
      continue;
    }
    log.http.push_back(sample(sh, ms));
    ++log.completed;
    if (rng() % 4 == 0) {
      trace::Span s("check.payload", rid);
      if (!payload_matches(cfg, b, buf.data() + body, len - body))
        rep.fail("http rows payload differs from the local load");
    }
  }
}

}  // namespace

MixResult run_client_mix(const MixConfig& cfg, Report& rep) {
  Shared sh;
  std::vector<ClientLog> logs(kTprqClients + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kTprqClients; ++c)
    threads.emplace_back([&, c] {
      tprq_client(cfg, c, sh, logs[static_cast<std::size_t>(c)], rep);
    });
  threads.emplace_back([&] { http_client(cfg, sh, logs.back(), rep); });
  while (sh.ready.load() < kTprqClients + 1) std::this_thread::yield();

  sh.start = Clock::now();
  sh.go.store(true);
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - sh.start).count();
  };
  auto nap = [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); };
  while (elapsed() < kWarmupS) nap();
  MixResult r;
  r.from_s = elapsed();
  const std::size_t warm_reads = sh.reads.load();
  const double cap = r.from_s + 3 * cfg.seconds;
  while ((r.to_s = elapsed()) < r.from_s + cfg.seconds ||
         (sh.reads.load() - warm_reads < kMinReads && r.to_s < cap))
    nap();
  sh.stop.store(true);
  for (auto& t : threads) t.join();

  auto append = [](std::vector<Sample>& to, const std::vector<Sample>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (auto& log : logs) {
    append(r.reads, log.reads);
    append(r.counts, log.counts);
    append(r.aggs, log.aggs);
    append(r.http, log.http);
    r.queries.insert(r.queries.end(), log.queries.begin(), log.queries.end());
    r.completed += log.completed;
  }
  return r;
}

std::vector<double> MixResult::measured(
    const std::vector<Sample>& samples) const {
  std::vector<double> ms;
  for (const Sample& s : samples)
    if (s.end_s >= from_s && s.end_s < to_s) ms.push_back(s.ms);
  return ms;
}

double MixResult::req_per_s() const {
  const std::size_t n = measured(reads).size() + measured(counts).size() +
                        measured(aggs).size() + measured(http).size();
  return to_s > from_s ? static_cast<double>(n) / (to_s - from_s) : 0;
}

void verify_queries(const std::string& archive_path, const std::string& dataset,
                    const std::vector<QuerySample>& queries,
                    std::uint64_t seed, Report& rep) {
  if (queries.empty()) return;
  trace::Span span("check.queries");
  store::ArchiveReader reader(archive_path);
  transpwr::query::Executor ex(reader, dataset);
  const std::size_t step = std::max<std::size_t>(1, queries.size() / 200);
  for (std::size_t i = seed % step; i < queries.size(); i += step) {
    const QuerySample& q = queries[i];
    const transpwr::query::RowRange range{q.row_begin, q.row_end};
    bool ok;
    if (q.count) {
      auto r = ex.count_where({transpwr::query::Cmp::kGt, q.threshold}, range);
      ok = r.matching == q.matching && r.total == q.total;
    } else {
      auto a = ex.aggregate(range);
      ok = a.min == q.min && a.max == q.max && a.sum == q.sum &&
           a.count == q.agg_count && a.finite == q.finite;
    }
    if (!ok) rep.fail("served query answer differs from the local executor");
  }
}

void report_mix_metrics(const MixResult& mix, Report& rep) {
  const auto reads = mix.measured(mix.reads);
  const auto http = mix.measured(mix.http);
  const auto counts = mix.measured(mix.counts);
  const auto aggs = mix.measured(mix.aggs);
  rep.metric("req_per_s", mix.req_per_s(), "req/s");
  rep.metric("p50_ms", quantile(reads, 0.50), "ms");
  rep.metric("p99_ms", quantile(reads, 0.99), "ms");
  rep.metric("http_p50_ms", quantile(http, 0.50), "ms");
  // Half the queries are counts and half aggregates, whose latencies
  // differ several-fold; a plain median would sit in the gap between
  // them, so the two kinds' medians are averaged.
  rep.metric("query_p50_ms", 0.5 * (quantile(counts, 0.5) + quantile(aggs, 0.5)),
             "ms");
  rep.fact("mix.read_rows_samples", static_cast<double>(reads.size()));
  rep.fact("mix.http_samples", static_cast<double>(http.size()));
  rep.fact("mix.query_samples", static_cast<double>(counts.size() + aggs.size()));
  rep.fact("mix.measured_s", mix.to_s - mix.from_s);
  rep.assert_that(reads.size() >= kMinReads && !http.empty() &&
                      !counts.empty() && !aggs.empty(),
                  "at least 2000 measured read_rows samples (20 beyond the "
                  "p99), with HTTP and query samples");
}

// --- the serve workloads -----------------------------------------------------

namespace {

constexpr std::size_t kHotBudget = std::size_t{256} << 20;
constexpr std::size_t kColdBudget = std::size_t{16} << 20;
const char* const kArchive = "snapshots.tpar";

/// One set-up of the served archive: write it, start the server, load it
/// locally (which primes the cache; serve_cold clears it again).
struct ServeSetup {
  std::string dir;
  std::string path;
  std::unique_ptr<transpwr::server::Server> server;
  std::vector<float> reference;
  double setup_s = 0;
  double dump_s = 0;
  double load_s = 0;
};

ServeSetup set_up(const Options& opt, const std::vector<Field>& fields,
                  bool hot, int index, ObsTotals* dumps, ObsTotals* loads,
                  Report& rep) {
  const Field& f = fields[0];
  ServeSetup s;
  s.dir = opt.work_dir + "/serve-" + std::to_string(::getpid()) + "-" +
          std::to_string(index);
  make_dir(s.dir);
  s.path = s.dir + "/" + kArchive;
  rep.attempted.fetch_add(2);  // one dump, one load
  Timer setup;
  {
    trace::Span span("setup", trace::next_request());
    obs::Snapshot s0 = obs::snapshot();
    s.dump_s = dump_snapshot(s.path, fields, sz_t_options(8));
    if (dumps) dumps->add(s0, obs::snapshot());
    {
      trace::Span c("server.start");
      transpwr::server::ServerOptions so;
      so.dir = s.dir;
      s.server = std::make_unique<transpwr::server::Server>(so);
      s.server->start();
    }
    obs::Snapshot s1 = obs::snapshot();
    std::vector<std::vector<float>> out;
    s.load_s = load_snapshot(s.path, fields, &out);
    s.reference = std::move(out[0]);
    if (loads) loads->add(s1, obs::snapshot());
    if (!hot) store::ChunkCache::instance().clear();  // nothing primed
  }
  s.setup_s = setup.seconds();

  std::uint64_t zeros = 0;
  const std::uint64_t bad =
      bound_violations(f.values, s.reference, kRelBound, &zeros);
  if (bad != 0 || zeros != 0)
    rep.fail("served archive load: " + std::to_string(bad) +
             " points outside the bound, " + std::to_string(zeros) +
             " modified zeros");
  return s;
}

void tear_down(ServeSetup& s) {
  if (s.server) s.server->stop();
  s.server.reset();
  remove_dir(s.dir);
}

}  // namespace

void run_serve(const Options& opt, bool hot, Report& rep) {
  const std::vector<Field> fields{served_field(opt.seed)};
  const Field& f = fields[0];
  const double raw = static_cast<double>(f.bytes());
  const std::size_t chunk_bytes = 8 * f.dims[1] * f.dims[2] * sizeof(float);
  const std::size_t n_chunks = f.dims[0] / 8;
  store::ScopedCacheCapacity budget(hot ? kHotBudget : kColdBudget);
  store::ChunkCache& cache = store::ChunkCache::instance();

  // The traced run records set-up too: its dumps and loads feed the
  // sz/lossless/core per-layer metrics.
  std::unique_ptr<obs::ScopedRecording> recording;
  if (opt.trace) {
    obs::reset();
    recording = std::make_unique<obs::ScopedRecording>(true);
    trace::enable(true);
  }

  ObsTotals dumps, loads;
  Timer spawn;
  transpwr::global_pool();  // the first pool spawn is part of set-up
  const double spawn_s = spawn.seconds();
  constexpr int kSetups = 7;
  std::vector<double> setup_s, dump_mbs, load_mbs;
  ServeSetup live;
  for (int i = 0; i < kSetups; ++i) {
    if (live.server) {
      tear_down(live);
      cache.clear();
    }
    live = set_up(opt, fields, hot, i, opt.trace ? &dumps : nullptr,
                  opt.trace ? &loads : nullptr, rep);
    setup_s.push_back(live.setup_s);
    dump_mbs.push_back(raw / (1 << 20) / live.dump_s);
    load_mbs.push_back(raw / (1 << 20) / live.load_s);
  }
  const double archive_bytes = static_cast<double>(file_size(live.path));
  rep.fact("raw_bytes", raw);
  rep.fact("archive_bytes", archive_bytes);
  rep.fact("cache_budget_bytes", static_cast<double>(cache.capacity()));
  rep.fact("chunks", static_cast<double>(n_chunks));
  rep.fact("chunk_bytes", static_cast<double>(chunk_bytes));
  rep.fact("cache_entries_after_setup", static_cast<double>(cache.entries()));
  if (hot)
    rep.assert_that(cache.entries() == n_chunks &&
                        cache.bytes() == static_cast<std::size_t>(raw),
                    "serve_hot: every chunk is primed in the cache");
  else
    rep.assert_that(cache.entries() == 0 && cache.capacity() * 4 <= raw,
                    "serve_cold: nothing primed, budget a quarter of the "
                    "dataset");

  MixConfig cfg;
  cfg.port = live.server->port();
  cfg.http_port = live.server->http_port();
  cfg.archive = kArchive;
  cfg.dataset = f.name;
  cfg.rows = f.dims[0];
  cfg.row_elems = f.dims[1] * f.dims[2];
  cfg.seed = opt.seed;
  // A traced run compares an untraced and a traced client phase, each
  // half of --seconds long.
  cfg.seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  cfg.reference = &live.reference;

  if (opt.trace) {
    recording.reset();
    trace::enable(false);
  }
  MixResult mix = run_client_mix(cfg, rep);  // untraced
  rep.fact("cache_entries_after_run", static_cast<double>(cache.entries()));
  if (hot)
    rep.assert_that(cache.entries() == n_chunks,
                    "serve_hot: no chunk left the cache, so every lookup hit");

  if (!opt.trace) {
    verify_queries(live.path, f.name, mix.queries, opt.seed, rep);
    rep.metric("setup_s", spawn_s + median(setup_s), "s");
    rep.metric("dump_mbs", median(dump_mbs), "MiB/s");
    rep.metric("load_mbs", median(load_mbs), "MiB/s");
    rep.metric("compression_ratio", raw / archive_bytes, "x");
    report_mix_metrics(mix, rep);
    tear_down(live);
    return;
  }

  // Traced phase: the same client mix with obs recording and bench spans.
  ObsTotals traffic;
  MixResult traced;
  {
    obs::Snapshot before = obs::snapshot();
    obs::ScopedRecording on(true);
    trace::enable(true);
    traced = run_client_mix(cfg, rep);
    trace::enable(false);
    traffic.add(before, obs::snapshot());
  }
  trace::enable(true);
  verify_queries(live.path, f.name, mix.queries, opt.seed, rep);
  verify_queries(live.path, f.name, traced.queries, opt.seed, rep);

  const double hits =
      static_cast<double>(traffic.counter("archive.cache_hits"));
  const double misses =
      static_cast<double>(traffic.counter("archive.cache_misses"));
  rep.fact("traced.cache_hits", hits);
  rep.fact("traced.cache_misses", misses);
  rep.fact("traced.requests", static_cast<double>(traced.completed));
  if (hot)
    rep.assert_that(hits / std::max(1.0, hits + misses) >= 0.99,
                    "serve_hot: cache hit ratio >= 0.99");
  else
    rep.assert_that(misses >= 0.5 * static_cast<double>(traced.completed),
                    "serve_cold: most requests decode (misses per request "
                    ">= 0.5)");

  LayerInputs in;
  in.fields = &fields;
  in.archive_path = live.path;
  in.dataset = f.name;
  in.port = cfg.port;
  in.seed = opt.seed;
  run_layer_replays(in, rep);
  report_registry_layers(dumps, kSetups, loads, kSetups, traffic,
                         traced.completed, rep);
  const auto summary = finish_trace(opt, rep);
  report_store_spans(summary, rep);
  rep.layer("obs.overhead_pct",
            100.0 * (mix.req_per_s() / traced.req_per_s() - 1.0), "%");
  tear_down(live);
}

}  // namespace perfbench
