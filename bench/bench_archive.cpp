// TPAR archive store bench: write / full-read / ROI-read throughput versus
// worker threads and chunk count, the zero-copy cold-vs-warm ROI sweep
// (mmap vs buffered transport, decoded-chunk cache on/off, open latency
// versus archive size), plus the Fig. 6 harness run in both file layouts
// (N-to-N file-per-rank vs N-to-1 shared archive). Emits machine-readable
// BENCH_PR8.json through the obs stats registry (BENCH_PR5_archive.json
// carries the pre-mmap layout) and self-checks that the recorded
// archive/harness span times stay below the measured wall time.
//
// Usage: bench_archive [out.json] [edge]
//   out.json  output path (default BENCH_PR8.json)
//   edge      cubic field edge length (default 192 => 27 MB of float32)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "data/generators.h"
#include "obs/obs.h"
#include "parallel/harness.h"
#include "store/archive.h"
#include "store/chunk_cache.h"

using namespace transpwr;

namespace {

constexpr int kReps = 3;

double mbs(double bytes, double seconds) {
  return seconds > 0 ? bytes / (1 << 20) / seconds : 0;
}

template <typename Fn>
double best_seconds(Fn&& fn) {
  fn();  // warm-up, untimed
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer t;
    fn();
    double s = t.seconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

template <typename Fn>
double p50_seconds(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    Timer t;
    fn();
    times.push_back(t.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Pin the mmap transport choice for the readers built inside `fn`.
template <typename Fn>
void with_mmap(bool enabled, Fn&& fn) {
  ::setenv("TRANSPWR_ARCHIVE_MMAP", enabled ? "1" : "0", 1);
  fn();
  ::unsetenv("TRANSPWR_ARCHIVE_MMAP");
}

struct StoreRun {
  std::size_t threads = 0;
  std::size_t chunks = 0;
  double write_s = 0;      ///< compress + append + finalize
  double read_s = 0;       ///< open + full decompress
  double roi_s = 0;        ///< open + 8-row ROI decompress
  double roi_speedup = 0;  ///< read_s / roi_s
  std::uint64_t archive_bytes = 0;
};

struct HarnessRun {
  const char* mode = "";
  std::size_t ranks = 0;
  double dump_s = 0;
  double load_s = 0;
  double write_s = 0;
  double read_s = 0;
};

/// One archive size in the zero-copy sweep. Sizes scale by row count with
/// a fixed (8-row x edge x edge) ROI cross-section, so "warm latency flat
/// in archive size" is a genuine zero-copy claim: the same bytes are
/// touched whether the file holds 16 or 384 rows.
struct ZeroCopyRun {
  std::size_t rows = 0;
  std::uint64_t archive_bytes = 0;
  double open_mmap_s = 0;          ///< construct + footer parse, mapped
  double open_buffered_s = 0;      ///< construct + footer parse, pread
  double roi_cold_mmap_s = 0;      ///< p50, cache off, mapped chunks
  double roi_cold_buffered_s = 0;  ///< p50, cache off, pread chunks
  double roi_warm_s = 0;           ///< p50, shared cache on, fresh readers
  double warm_speedup = 0;         ///< roi_cold_mmap_s / roi_warm_s
  double cache_hit_rate = 0;       ///< hits / (hits + misses), warm loop
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_PR8.json";
  const std::size_t edge =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 192;

  // Record across the whole run: every archive.* / harness.* span the
  // store path emits lands in the JSON next to the gauge table.
  obs::ScopedRecording rec;
  obs::reset();
  Timer total_wall;

  bench::print_header("TPAR archive: write / read / ROI throughput");
  auto f = gen::nyx_dark_matter_density(Dims(edge, edge, edge), 42);
  const double bytes = static_cast<double>(f.bytes());
  std::printf("field: %s = %.1f MB\n", f.dims.to_string().c_str(),
              bytes / (1 << 20));

  const std::string path = "/tmp/transpwr_bench_archive.tpar";
  const std::size_t rows = f.dims[0];
  const std::size_t roi_rows = 8;
  const double roi_bytes =
      bytes * static_cast<double>(roi_rows) / static_cast<double>(rows);

  std::vector<StoreRun> store_runs;
  for (std::size_t chunks : {4u, 16u, 64u}) {
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      StoreRun r;
      r.threads = threads;
      r.chunks = chunks;

      store::DatasetOptions opts;
      opts.scheme = Scheme::kSzT;
      opts.params.bound = 1e-3;
      opts.threads = threads;
      opts.rows_per_chunk = (rows + chunks - 1) / chunks;

      r.write_s = best_seconds([&] {
        store::ArchiveWriter writer(path);
        writer.add_dataset<float>("density", f.span(), f.dims, opts);
        writer.finish();
        r.archive_bytes = writer.bytes_written();
      });
      r.read_s = best_seconds([&] {
        store::ArchiveReader reader(path);
        reader.load<float>("density", nullptr, threads);
      });
      // ROI in the middle of the dataset, so it cannot ride on a chunk that
      // happens to start the file.
      const std::size_t roi_begin = rows / 2;
      r.roi_s = best_seconds([&] {
        store::ArchiveReader reader(path);
        reader.read_rows<float>("density", roi_begin, roi_begin + roi_rows,
                                nullptr, threads);
      });
      r.roi_speedup = r.roi_s > 0 ? r.read_s / r.roi_s : 0;
      std::printf(
          "chunks=%2zu t=%zu: write %7.1f MB/s | read %7.1f MB/s | "
          "roi(8 rows) %6.3f ms (%.1fx vs full read) | %llu bytes\n",
          chunks, threads, mbs(bytes, r.write_s), mbs(bytes, r.read_s),
          1e3 * r.roi_s, r.roi_speedup,
          static_cast<unsigned long long>(r.archive_bytes));
      store_runs.push_back(r);
    }
  }
  std::remove(path.c_str());

  bench::print_header(
      "zero-copy sweep: open latency + cold/warm 8-row ROI vs archive size");
  constexpr int kRoiReps = 21;
  const std::size_t zc_roi_rows = 8;
  std::vector<ZeroCopyRun> zc_runs;
  for (std::size_t rows :
       {std::max<std::size_t>(16, edge / 2), std::max<std::size_t>(32, edge),
        std::max<std::size_t>(64, edge * 2)}) {
    ZeroCopyRun z;
    z.rows = rows;
    auto zf = gen::nyx_dark_matter_density(Dims(rows, edge, edge), 42);
    {
      store::ArchiveWriter writer(path);
      store::DatasetOptions opts;
      opts.scheme = Scheme::kSzT;
      opts.params.bound = 1e-3;
      opts.rows_per_chunk = 8;  // fixed chunk geometry across sizes
      writer.add_dataset<float>("density", zf.span(), zf.dims, opts);
      writer.finish();
      z.archive_bytes = writer.bytes_written();
    }

    const std::size_t begin = rows / 2;
    auto roi = [&] {
      store::ArchiveReader reader(path);
      reader.read_rows<float>("density", begin, begin + zc_roi_rows, nullptr,
                              1);
    };

    // Open latency: footer parse only, so it should track the directory
    // size, not the payload size.
    with_mmap(true, [&] {
      z.open_mmap_s = p50_seconds(kRoiReps, [&] {
        store::ArchiveReader reader(path);
        bench::do_not_optimize(reader.datasets().size());
      });
    });
    with_mmap(false, [&] {
      z.open_buffered_s = p50_seconds(kRoiReps, [&] {
        store::ArchiveReader reader(path);
        bench::do_not_optimize(reader.datasets().size());
      });
    });

    {  // cold: every rep re-verifies and re-decodes its chunk
      store::ScopedCacheCapacity off(0);
      with_mmap(true,
                [&] { z.roi_cold_mmap_s = p50_seconds(kRoiReps, roi); });
      with_mmap(false,
                [&] { z.roi_cold_buffered_s = p50_seconds(kRoiReps, roi); });
    }
    {  // warm: fresh readers share the process-wide decoded-chunk cache
      store::ScopedCacheCapacity cap(256u << 20);
      const std::uint64_t h0 = obs::counter_value("archive.cache_hits");
      const std::uint64_t m0 = obs::counter_value("archive.cache_misses");
      with_mmap(true, [&] {
        roi();  // prime
        z.roi_warm_s = p50_seconds(kRoiReps, roi);
      });
      const double hits =
          static_cast<double>(obs::counter_value("archive.cache_hits") - h0);
      const double misses = static_cast<double>(
          obs::counter_value("archive.cache_misses") - m0);
      z.cache_hit_rate =
          hits + misses > 0 ? hits / (hits + misses) : 0;
    }
    z.warm_speedup = z.roi_warm_s > 0 ? z.roi_cold_mmap_s / z.roi_warm_s : 0;
    std::printf(
        "rows=%3zu (%5.1f MB): open %6.1f/%6.1f us mmap/buffered | "
        "roi cold %7.3f/%7.3f ms | warm %7.3f ms (%.0fx, hit %.0f%%)\n",
        rows, static_cast<double>(z.archive_bytes) / (1 << 20),
        1e6 * z.open_mmap_s, 1e6 * z.open_buffered_s,
        1e3 * z.roi_cold_mmap_s, 1e3 * z.roi_cold_buffered_s,
        1e3 * z.roi_warm_s, z.warm_speedup, 100 * z.cache_hit_rate);
    zc_runs.push_back(z);
    std::remove(path.c_str());
  }
  // Flatness: warm repeated-ROI latency must not scale with archive size.
  const double warm_flatness =
      zc_runs.front().roi_warm_s > 0
          ? zc_runs.back().roi_warm_s / zc_runs.front().roi_warm_s
          : 0;
  double min_warm_speedup = zc_runs.front().warm_speedup;
  for (const auto& z : zc_runs)
    min_warm_speedup = std::min(min_warm_speedup, z.warm_speedup);
  std::printf("warm p50 flatness largest/smallest: %.2fx | "
              "min warm-vs-cold speedup: %.1fx\n",
              warm_flatness, min_warm_speedup);

  bench::print_header("Fig. 6 harness: N-to-N files vs N-to-1 shared TPAR");
  auto shards = gen::nyx_bundle(gen::Scale::kSmall, 7);
  std::vector<HarnessRun> harness_runs;
  for (std::size_t ranks : {4u, 8u}) {
    for (auto layout :
         {parallel::Layout::kFilePerRank, parallel::Layout::kSharedArchive}) {
      parallel::RunConfig cfg;
      cfg.scheme = Scheme::kSzT;
      cfg.params.bound = 1e-2;
      cfg.ranks = ranks;
      cfg.dir = "/tmp";
      cfg.layout = layout;
      cfg.pfs_mbps_per_rank = 2.0;  // the paper's bandwidth-starved regime
      cfg.verify_rel_bound = 1e-2;
      auto res = parallel::run(cfg, shards);
      HarnessRun h;
      h.mode = layout == parallel::Layout::kSharedArchive ? "n_to_1" : "n_to_n";
      h.ranks = ranks;
      h.dump_s = res.dump_s();
      h.load_s = res.load_s();
      h.write_s = res.write_s;
      h.read_s = res.read_s;
      std::printf("%zu ranks %-7s: dump %6.3fs (write %6.3fs) | "
                  "load %6.3fs (read %6.3fs)%s\n",
                  ranks, h.mode, h.dump_s, h.write_s, h.load_s, h.read_s,
                  res.verified ? "" : " !VERIFY");
      harness_runs.push_back(h);
    }
  }

  // --- emit everything through the registry as transpwr-stats-v1.
  for (const StoreRun& r : store_runs) {
    const std::string p = "store.c" + std::to_string(r.chunks) + ".t" +
                          std::to_string(r.threads) + ".";
    obs::gauge_set(p + "write_s", r.write_s);
    obs::gauge_set(p + "read_s", r.read_s);
    obs::gauge_set(p + "roi_s", r.roi_s);
    obs::gauge_set(p + "write_mbs", mbs(bytes, r.write_s));
    obs::gauge_set(p + "read_mbs", mbs(bytes, r.read_s));
    obs::gauge_set(p + "roi_speedup", r.roi_speedup);
    obs::gauge_set(p + "archive_bytes",
                   static_cast<double>(r.archive_bytes));
  }
  for (const ZeroCopyRun& z : zc_runs) {
    const std::string p = "zerocopy.r" + std::to_string(z.rows) + ".";
    obs::gauge_set(p + "archive_bytes", static_cast<double>(z.archive_bytes));
    obs::gauge_set(p + "open_mmap_s", z.open_mmap_s);
    obs::gauge_set(p + "open_buffered_s", z.open_buffered_s);
    obs::gauge_set(p + "roi_cold_mmap_s", z.roi_cold_mmap_s);
    obs::gauge_set(p + "roi_cold_buffered_s", z.roi_cold_buffered_s);
    obs::gauge_set(p + "roi_warm_s", z.roi_warm_s);
    obs::gauge_set(p + "warm_speedup", z.warm_speedup);
    obs::gauge_set(p + "cache_hit_rate", z.cache_hit_rate);
  }
  obs::gauge_set("zerocopy.warm_flatness", warm_flatness);
  obs::gauge_set("zerocopy.min_warm_speedup", min_warm_speedup);
  for (const HarnessRun& h : harness_runs) {
    const std::string p = std::string("harness.") + h.mode + ".r" +
                          std::to_string(h.ranks) + ".";
    obs::gauge_set(p + "dump_s", h.dump_s);
    obs::gauge_set(p + "load_s", h.load_s);
    obs::gauge_set(p + "write_s", h.write_s);
    obs::gauge_set(p + "read_s", h.read_s);
  }
  obs::gauge_set("field_bytes", bytes);
  obs::gauge_set("roi_bytes", roi_bytes);

  // --- stats self-check: spans only observe, so no single-threaded span
  // can have accumulated more wall time than the whole process took. A
  // violation means span placement or cross-thread merging double-counts.
  const double wall = total_wall.seconds();
  obs::gauge_set("bench_wall_s", wall);
  int rc = 0;
  obs::Snapshot snap = obs::snapshot();
  for (const char* path : {"archive.add_dataset", "archive.finish",
                           "archive.load", "archive.read_rows"}) {
    for (const auto& [p, stat] : snap.spans) {
      if (p == path && stat.seconds > wall * 1.10 + 2e-3) {
        std::fprintf(stderr,
                     "stats check failed: span %s %.6f s exceeds bench wall "
                     "%.6f s\n",
                     p.c_str(), stat.seconds, wall);
        rc = 1;
      }
    }
  }

  const std::vector<std::pair<std::string, std::string>> meta = {
      {"bench", "archive"},
      {"field_dims", f.dims.to_string()},
      {"reps", std::to_string(kReps)},
      {"roi_rows", std::to_string(roi_rows)},
      {"zerocopy_roi_reps", std::to_string(kRoiReps)},
      {"zerocopy_roi_rows", std::to_string(zc_roi_rows)},
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
