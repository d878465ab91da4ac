#include "parallel/harness.h"

#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/error.h"
#include "common/parallel.h"
#include "data/io.h"
#include "obs/obs.h"
#include "store/archive.h"

namespace transpwr {
namespace parallel {
namespace {

struct RankTimes {
  double compress_s = 0, write_s = 0, read_s = 0, decompress_s = 0;
  std::size_t compressed_bytes = 0;
  bool ok = true;
};

/// Unique per-run scratch tag: concurrent runs (even across processes
/// sharing /tmp) get disjoint file names instead of clobbering each other.
std::string unique_run_tag() {
  static std::atomic<std::uint64_t> next{0};
  return std::to_string(static_cast<long long>(::getpid())) + "_" +
         std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

std::string rank_path(const std::string& dir, const std::string& tag,
                      std::size_t rank) {
  return dir + "/transpwr_" + tag + "_rank_" + std::to_string(rank) + ".bin";
}

/// Scope-exit removal of every scratch file a run may create, so nothing
/// leaks when a rank body or the post-run verification throws.
struct ScopedRemove {
  std::vector<std::string> paths;
  ~ScopedRemove() {
    for (const auto& p : paths) std::remove(p.c_str());
  }
};

/// Floor an I/O phase's elapsed time at bytes/bandwidth by sleeping out the
/// remainder; returns the effective phase time.
double throttle_io(double actual_s, std::size_t bytes, double mbps) {
  if (mbps <= 0) return actual_s;
  double floor_s =
      static_cast<double>(bytes) / (mbps * 1024.0 * 1024.0);
  if (actual_s < floor_s)
    std::this_thread::sleep_for(
        std::chrono::duration<double>(floor_s - actual_s));
  return std::max(actual_s, floor_s);
}

std::string rank_dataset(std::size_t rank) {
  return "rank_" + std::to_string(rank);
}

}  // namespace

RunResult run(const RunConfig& cfg, const std::vector<Field<float>>& shards) {
  if (shards.empty()) throw ParamError("parallel::run: no shards");
  if (cfg.ranks == 0) throw ParamError("parallel::run: zero ranks");

  const std::string tag = unique_run_tag();
  const bool shared = cfg.layout == Layout::kSharedArchive;
  const std::string archive_path =
      cfg.dir + "/transpwr_" + tag + ".tpar";
  ScopedRemove cleanup;
  if (shared) {
    cleanup.paths.push_back(archive_path);
  } else {
    for (std::size_t r = 0; r < cfg.ranks; ++r)
      cleanup.paths.push_back(rank_path(cfg.dir, tag, r));
  }

  std::vector<RankTimes> times(cfg.ranks);
  // Shared-archive mode: ranks hand their streams to the single writer
  // (rank 0) across a barrier, which provides the happens-before edges.
  std::vector<std::vector<std::uint8_t>> streams(shared ? cfg.ranks : 0);
  std::barrier sync(static_cast<std::ptrdiff_t>(cfg.ranks));
  std::atomic<bool> failed{false};

  auto body = [&](std::size_t rank) {
    try {
      const Field<float>& shard = shards[rank % shards.size()];
      auto comp = make_compressor(cfg.scheme);
      RankTimes& t = times[rank];

      // --- dump: compress, then write (own file, or one shared archive).
      sync.arrive_and_wait();
      std::vector<std::uint8_t> stream;
      {
        obs::Span sc("harness.compress");
        stream = comp->compress(shard.span(), shard.dims, cfg.params);
        t.compress_s = sc.seconds();
      }
      t.compressed_bytes = stream.size();

      if (shared) streams[rank] = std::move(stream);
      sync.arrive_and_wait();
      if (shared) {
        // N-to-1: rank 0 is the writer; the shared file serializes the
        // write phase, so its makespan is the whole archive through one
        // rank's bandwidth share. The other ranks idle (their write_s
        // stays 0; the reported phase time is the max over ranks).
        if (rank == 0) {
          obs::Span sw("harness.write");
          std::size_t total = 0;
          {
            store::ArchiveWriter writer(archive_path);
            for (std::size_t r = 0; r < cfg.ranks; ++r) {
              const Field<float>& s = shards[r % shards.size()];
              writer.add_compressed(rank_dataset(r), DataType::kFloat32,
                                    cfg.scheme, s.dims, cfg.params.bound,
                                    cfg.params.log_base, streams[r]);
              total += streams[r].size();
            }
            writer.finish();
          }
          t.write_s = throttle_io(sw.seconds(), total, cfg.pfs_mbps_per_rank);
          for (auto& s : streams) {
            s.clear();
            s.shrink_to_fit();
          }
        }
      } else {
        obs::Span sw("harness.write");
        io::write_bytes(rank_path(cfg.dir, tag, rank), stream);
        t.write_s =
            throttle_io(sw.seconds(), stream.size(), cfg.pfs_mbps_per_rank);
      }

      // --- load: read own file / seek into the shared archive, then
      // decompress. The barrier guarantees the archive is finalized before
      // any rank opens it.
      sync.arrive_and_wait();
      std::vector<std::uint8_t> loaded;
      {
        obs::Span sr("harness.read");
        if (shared) {
          store::ArchiveReader reader(archive_path);
          loaded = reader.read_chunk_bytes(rank_dataset(rank), 0);
        } else {
          loaded = io::read_bytes(rank_path(cfg.dir, tag, rank));
        }
        t.read_s =
            throttle_io(sr.seconds(), loaded.size(), cfg.pfs_mbps_per_rank);
      }

      sync.arrive_and_wait();
      std::vector<float> decomp;
      {
        obs::Span sd("harness.decompress");
        decomp = comp->decompress_f32(loaded);
        t.decompress_s = sd.seconds();
      }

      if (decomp.size() != shard.values.size()) t.ok = false;
      if (t.ok && cfg.verify_rel_bound > 0) {
        for (std::size_t i = 0; i < decomp.size(); ++i) {
          double x = shard.values[i];
          double xd = decomp[i];
          if (x == 0.0 ? xd != 0.0
                       : !(std::abs(x - xd) <=
                           cfg.verify_rel_bound * std::abs(x))) {
            t.ok = false;
            break;
          }
        }
      }
    } catch (...) {
      failed = true;
      times[rank].ok = false;
      // Unblock the remaining ranks' barriers permanently.
      sync.arrive_and_drop();
    }
  };

  // Rank bodies synchronise through `sync`, so all of them must be live at
  // once — run_concurrent gives each a dedicated thread, so every rank's
  // nested parallelism (archive chunks, log transform) fans out over the
  // shared pool identically and per-rank timings stay comparable.
  run_concurrent(cfg.ranks, body);
  if (failed) throw StreamError("parallel::run: a rank failed");

  RunResult res;
  res.ranks = cfg.ranks;
  res.raw_bytes_per_rank = shards[0].bytes();
  res.verified = true;
  std::size_t raw_total = 0;
  for (std::size_t r = 0; r < cfg.ranks; ++r) {
    const RankTimes& t = times[r];
    res.compress_s = std::max(res.compress_s, t.compress_s);
    res.write_s = std::max(res.write_s, t.write_s);
    res.read_s = std::max(res.read_s, t.read_s);
    res.decompress_s = std::max(res.decompress_s, t.decompress_s);
    res.compressed_bytes_total += t.compressed_bytes;
    raw_total += shards[r % shards.size()].bytes();
    if (!t.ok) res.verified = false;
  }
  res.compression_ratio =
      static_cast<double>(raw_total) /
      static_cast<double>(std::max<std::size_t>(1, res.compressed_bytes_total));
  return res;
}

RunResult run_raw_baseline(std::size_t ranks, const std::string& dir,
                           const std::vector<Field<float>>& shards,
                           double pfs_mbps_per_rank) {
  if (shards.empty()) throw ParamError("run_raw_baseline: no shards");
  if (ranks == 0) throw ParamError("run_raw_baseline: zero ranks");

  const std::string tag = unique_run_tag();
  ScopedRemove cleanup;
  for (std::size_t r = 0; r < ranks; ++r)
    cleanup.paths.push_back(rank_path(dir, tag, r));

  std::vector<RankTimes> times(ranks);
  std::barrier sync(static_cast<std::ptrdiff_t>(ranks));
  std::atomic<bool> failed{false};

  auto body = [&](std::size_t rank) {
    try {
      const Field<float>& shard = shards[rank % shards.size()];
      RankTimes& t = times[rank];
      sync.arrive_and_wait();
      {
        obs::Span sw("harness.write");
        io::write_floats(rank_path(dir, tag, rank), shard.span());
        t.write_s = throttle_io(sw.seconds(), shard.bytes(),
                                pfs_mbps_per_rank);
      }
      sync.arrive_and_wait();
      obs::Span sr("harness.read");
      auto loaded = io::read_floats(rank_path(dir, tag, rank));
      t.read_s = throttle_io(sr.seconds(), loaded.size() * sizeof(float),
                             pfs_mbps_per_rank);
      t.compressed_bytes = loaded.size() * sizeof(float);
      if (loaded.size() != shard.values.size()) t.ok = false;
    } catch (...) {
      failed = true;
      times[rank].ok = false;
      sync.arrive_and_drop();
    }
  };

  run_concurrent(ranks, body);
  if (failed) throw StreamError("run_raw_baseline: a rank failed");

  RunResult res;
  res.ranks = ranks;
  res.raw_bytes_per_rank = shards[0].bytes();
  res.verified = true;
  for (std::size_t r = 0; r < ranks; ++r) {
    res.write_s = std::max(res.write_s, times[r].write_s);
    res.read_s = std::max(res.read_s, times[r].read_s);
    res.compressed_bytes_total += times[r].compressed_bytes;
    if (!times[r].ok) res.verified = false;
  }
  res.compression_ratio = 1.0;
  return res;
}

}  // namespace parallel
}  // namespace transpwr
