// `transpwr serve` load bench: request throughput and latency quantiles
// for the TPRQ1 binary protocol versus concurrent client count and ROI
// size, cold (every request re-decodes its chunks) vs warm (the shared
// decoded-chunk cache is hot), plus a small HTTP facade sweep. Runs a
// real Server on ephemeral loopback ports in-process, so the numbers
// include framing, checksums, socket hops, and the shared-registry path
// — everything but real network distance. Emits machine-readable
// BENCH_PR9_serve.json through the obs stats registry and self-checks
// that recorded server span time stays within the concurrency budget.
//
// Usage: bench_serve [out.json] [edge] [reqs_per_client]
//   out.json         output path (default BENCH_PR9_serve.json)
//   edge             field edge; dataset is (4*edge x edge x edge) float32
//                    (default 64 => 256x64x64 = 4 MiB served dataset)
//   reqs_per_client  requests each client issues per cell (default 50)
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "data/generators.h"
#include "net/client.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "server/server.h"
#include "store/archive.h"
#include "store/chunk_cache.h"

using namespace transpwr;

namespace {

double quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

struct Cell {
  std::size_t clients = 0;
  std::size_t roi_rows = 0;
  bool warm = false;
  double p50_ms = 0;
  double p99_ms = 0;
  double rps = 0;     ///< aggregate requests per second
  double mbs = 0;     ///< aggregate decoded payload MB/s
};

/// One load cell: `clients` threads, each issuing `reqs` kReadRows
/// requests of `roi_rows` rows at rotating offsets.
Cell run_cell(std::uint16_t port, std::size_t total_rows, std::size_t edge,
              std::size_t clients, std::size_t roi_rows, std::size_t reqs,
              bool warm) {
  Cell cell;
  cell.clients = clients;
  cell.roi_rows = roi_rows;
  cell.warm = warm;

  std::vector<std::vector<double>> lat(clients);
  std::atomic<std::size_t> errors{0};
  Timer wall;
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      try {
        net::Client cl("127.0.0.1", port);
        lat[c].reserve(reqs);
        for (std::size_t i = 0; i < reqs; ++i) {
          std::uint64_t b = (c * 13 + i * roi_rows) %
                            (total_rows - roi_rows + 1);
          Timer t;
          auto payload =
              cl.read_rows("snapshots.tpar", "density", b, b + roi_rows);
          lat[c].push_back(t.seconds());
          bench::do_not_optimize(payload.bytes.size());
        }
      } catch (const Error&) {
        ++errors;
      }
    });
  }
  for (auto& w : workers) w.join();
  const double seconds = wall.seconds();
  if (errors.load() > 0) {
    std::fprintf(stderr, "bench_serve: %zu client(s) failed\n",
                 errors.load());
    std::exit(1);
  }

  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  cell.p50_ms = 1e3 * quantile(all, 0.50);
  cell.p99_ms = 1e3 * quantile(all, 0.99);
  const double total_reqs = static_cast<double>(all.size());
  cell.rps = seconds > 0 ? total_reqs / seconds : 0;
  const double payload_bytes = static_cast<double>(roi_rows) *
                               static_cast<double>(edge * edge) *
                               sizeof(float);
  cell.mbs =
      seconds > 0 ? total_reqs * payload_bytes / (1 << 20) / seconds : 0;
  return cell;
}

/// One-shot HTTP GET; returns response size in bytes.
std::size_t http_get(std::uint16_t port, const std::string& target) {
  net::Socket s = net::Socket::connect("127.0.0.1", port);
  s.send_all("GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n");
  std::uint8_t buf[1 << 16];
  std::size_t total = 0;
  while (std::size_t n = s.recv_some(buf, /*timeout_ms=*/30000)) total += n;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_PR9_serve.json";
  const std::size_t edge =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 64;
  const std::size_t reqs =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 50;
  const std::size_t rows = 4 * edge;

  obs::ScopedRecording rec;
  obs::reset();
  Timer total_wall;

  bench::print_header("transpwr serve: loopback load generator");
  const std::string dir = "/tmp/transpwr_bench_serve";
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/snapshots.tpar";
  {
    auto f = gen::nyx_dark_matter_density(Dims(rows, edge, edge), 42);
    std::printf("served dataset: %s = %.1f MB\n", f.dims.to_string().c_str(),
                static_cast<double>(f.bytes()) / (1 << 20));
    store::ArchiveWriter w(path);
    store::DatasetOptions opts;
    opts.scheme = Scheme::kSzT;
    opts.params.bound = 1e-3;
    opts.rows_per_chunk = 8;
    w.add_dataset<float>("density", f.span(), f.dims, opts);
    w.finish();
  }

  server::ServerOptions opts;
  opts.dir = dir;
  server::Server srv(opts);
  srv.start();
  std::printf("serving on 127.0.0.1:%u (tprq1) / :%u (http)\n", srv.port(),
              srv.http_port());

  const std::size_t max_clients = 8;
  std::vector<Cell> cells;
  for (bool warm : {false, true}) {
    // Cold: no decoded-chunk reuse at all. Warm: a big shared cache,
    // primed by the first pass over each offset.
    store::ScopedCacheCapacity cap(warm ? (512u << 20) : 0);
    for (std::size_t roi_rows : {1u, 8u, 32u}) {
      for (std::size_t clients : {1u, 2u, 4u, 8u}) {
        if (warm)  // prime every offset this cell will touch
          run_cell(srv.port(), rows, edge, clients, roi_rows,
                   std::min<std::size_t>(reqs, 8), true);
        Cell cell = run_cell(srv.port(), rows, edge, clients, roi_rows,
                             reqs, warm);
        std::printf(
            "%s roi=%2zu rows x %zu client(s): %8.0f req/s | "
            "%7.1f MB/s | p50 %7.3f ms | p99 %7.3f ms\n",
            warm ? "warm" : "cold", roi_rows, clients, cell.rps, cell.mbs,
            cell.p50_ms, cell.p99_ms);
        cells.push_back(cell);
      }
    }
  }

  // A taste of the facade: JSON directory + one raw ROI per request.
  bench::print_header("HTTP facade: single-client request rate");
  double http_rps = 0;
  {
    const std::size_t http_reqs = std::max<std::size_t>(reqs / 2, 10);
    Timer t;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < http_reqs; ++i)
      bytes += http_get(srv.http_port(),
                        "/archives/snapshots.tpar/datasets/density/"
                        "rows?range=0:8&encoding=raw");
    const double s = t.seconds();
    http_rps = s > 0 ? static_cast<double>(http_reqs) / s : 0;
    std::printf("GET rows (raw, 8 rows): %.0f req/s (%.1f MB/s)\n", http_rps,
                s > 0 ? static_cast<double>(bytes) / (1 << 20) / s : 0);
  }

  srv.stop();
  std::remove(path.c_str());

  // --- emit through the registry as transpwr-stats-v1.
  for (const Cell& c : cells) {
    const std::string p = std::string("serve.") +
                          (c.warm ? "warm" : "cold") + ".roi" +
                          std::to_string(c.roi_rows) + ".c" +
                          std::to_string(c.clients) + ".";
    obs::gauge_set(p + "p50_ms", c.p50_ms);
    obs::gauge_set(p + "p99_ms", c.p99_ms);
    obs::gauge_set(p + "rps", c.rps);
    obs::gauge_set(p + "mbs", c.mbs);
  }
  obs::gauge_set("serve.http_rps", http_rps);
  const double wall = total_wall.seconds();
  obs::gauge_set("bench_wall_s", wall);

  // --- stats self-check. Handlers run concurrently, so server span time
  // may exceed wall — but never the concurrency budget: with at most
  // `max_clients` connections in flight, summed op time above
  // wall x clients means a span is double-counted or misplaced.
  int rc = 0;
  obs::Snapshot snap = obs::snapshot();
  double op_seconds = 0;
  std::uint64_t op_count = 0;
  for (const auto& [p, stat] : snap.spans) {
    // The root dispatch span only — nested child paths
    // (".../archive.read_rows/...") cover the same wall time again.
    if (p == "server.op_read_rows") {
      op_seconds += stat.seconds;
      op_count += stat.count;
    }
  }
  const double budget = wall * static_cast<double>(max_clients) * 1.10 + 2e-3;
  if (op_seconds > budget) {
    std::fprintf(stderr,
                 "stats check failed: server.op_read_rows %.3f s exceeds "
                 "the %.3f s concurrency budget\n",
                 op_seconds, budget);
    rc = 1;
  }
  const std::uint64_t served = obs::counter_value("server.requests");
  if (op_count == 0 || served < op_count) {
    std::fprintf(stderr,
                 "stats check failed: %llu read_rows spans vs %llu "
                 "requests served\n",
                 static_cast<unsigned long long>(op_count),
                 static_cast<unsigned long long>(served));
    rc = 1;
  }

  const std::vector<std::pair<std::string, std::string>> meta = {
      {"bench", "serve"},
      {"edge", std::to_string(edge)},
      {"rows", std::to_string(rows)},
      {"reqs_per_client", std::to_string(reqs)},
  };
  std::string text = obs::to_json(snap, meta);
  if (!obs::json_valid(text)) {
    std::fprintf(stderr, "stats check failed: emitted JSON is invalid\n");
    return 1;
  }
  obs::write_stats_json(out_path, meta);
  std::printf("wrote %s\n", out_path.c_str());
  return rc;
}
