// Throughput trajectory bench: transform-only, SZ_T end-to-end (with
// per-stage breakdown read from the obs span registry), an in-memory TPAR
// archive write + load with one chunk per thread (the "chunked" row), the
// standalone block-parallel entropy stage at 1/2/4/8 threads on a >= 64 MB
// field, and per-kernel
// microbenches of the PR6 vectorized kernel layer. Emits machine-readable
// BENCH_PR6.json through the obs stats registry so future PRs can diff
// against this PR's numbers (BENCH_PR3.json carries the pre-registry
// layout), and self-checks that the per-stage span times are consistent
// with the measured wall time and that every kernel reports a nonzero rate.
//
// Usage: bench_throughput [out.json] [edge]
//   out.json  output path (default BENCH_PR6.json)
//   edge      cubic field edge length (default 256 => 64 MB of float32)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/log_transform.h"
#include "core/transformed.h"
#include "data/generators.h"
#include "kernels/dispatch.h"
#include "kernels/log_batch.h"
#include "lossless/blocked_huffman.h"
#include "obs/obs.h"
#include "store/archive.h"

using namespace transpwr;

namespace {

constexpr int kReps = 3;

double gbs(double bytes, double seconds) {
  return seconds > 0 ? bytes / 1e9 / seconds : 0;
}

/// Best-of-kReps wall time of fn() after one untimed warm-up rep — the
/// warm-up faults in pages, primes caches, and spins up pool workers so the
/// first timed rep is not an outlier; minimum (not mean) sheds scheduler
/// noise on shared machines.
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

/// Mean seconds per call of the spans whose path ends in `suffix` (whole
/// path components), as recorded since the last obs::reset().
double span_mean(const obs::Snapshot& snap, const std::string& suffix) {
  double seconds = 0;
  std::uint64_t count = 0;
  for (const auto& [path, stat] : snap.spans) {
    if (path != suffix &&
        !(path.size() > suffix.size() &&
          path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
              0 &&
          path[path.size() - suffix.size() - 1] == '/'))
      continue;
    seconds += stat.seconds;
    count += stat.count;
  }
  return count ? seconds / static_cast<double>(count) : 0;
}

/// Per-stage attribution of the inner SZ codec, per call.
struct Stages {
  double predict_s = 0;         ///< prediction + quantization sweep
  double histogram_s = 0;       ///< entropy histogram + table build
  double encode_s = 0;          ///< block-parallel entropy encode (+ gated LZ)
  double entropy_decode_s = 0;  ///< block-parallel entropy decode
  double reconstruct_s = 0;     ///< prediction-driven reconstruction
};

struct Run {
  std::size_t threads = 0;
  double transform_fwd_s = 0;
  double transform_inv_s = 0;
  double szt_compress_s = 0;
  double szt_decompress_s = 0;
  // In-memory TPAR archive write / load, one chunk per thread.
  double chunked_compress_s = 0;
  double chunked_decompress_s = 0;
  Stages stages;
  // Standalone blocked entropy stage over a synthetic quant-code stream.
  double entropy_encode_s = 0;
  double entropy_decode_s = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_PR6.json";
  const std::size_t edge =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 256;

  bench::print_header("Throughput: transform / SZ_T / archive / entropy");

  // Pre-spawn the shared pool before anything timed: the global pool's
  // workers are created lazily on first parallel_for, and in BENCH_PR3 that
  // one-time spawn landed inside a timed transform rep (the anomalous
  // 4-thread transform_fwd_gbs dip). One throwaway full-width region eats
  // the cost here, so timed reps measure kernels, not thread creation.
  parallel_for(
      std::size_t{1} << 22, [](std::size_t, std::size_t) {},
      ParallelOptions{});

  auto f = gen::nyx_dark_matter_density(Dims(edge, edge, edge), 42);
  const double bytes = static_cast<double>(f.bytes());
  std::printf("field: %s = %.1f MB\n", f.dims.to_string().c_str(),
              bytes / (1 << 20));

  // Synthetic quant-code stream for the standalone entropy measurement:
  // Gaussian residuals over a 2^16 alphabet, the shape the SZ quantizer
  // emits on smooth data.
  std::vector<std::uint32_t> codes(f.values.size());
  {
    std::mt19937_64 rng(1234);
    std::normal_distribution<double> noise(0.0, 6.0);
    for (auto& c : codes) {
      auto v = static_cast<long>(32768 + std::lround(noise(rng)));
      c = static_cast<std::uint32_t>(std::clamp(v, 1L, 65535L));
    }
  }
  const double code_bytes = static_cast<double>(codes.size()) * 4;

  std::vector<Run> runs;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    Run r;
    r.threads = threads;

    auto fwd = log_forward<float>(f.values, 1e-3, 2.0, threads);
    r.transform_fwd_s = best_seconds(
        [&] { log_forward<float>(f.values, 1e-3, 2.0, threads); });
    r.transform_inv_s = best_seconds([&] {
      log_inverse<float>(fwd.mapped, fwd.negative, 2.0, fwd.zero_threshold,
                         threads);
    });

    TransformedParams tp;
    tp.rel_bound = 1e-3;
    tp.threads = threads;
    std::vector<std::uint8_t> szt_stream;
    {
      // Stage times come from the spans of the same reps.
      obs::ScopedRecording rec;
      obs::reset();
      r.szt_compress_s = best_seconds([&] {
        szt_stream = transformed_compress<float>(f.values, f.dims,
                                                 InnerCodec::kSz, tp);
      });
      r.szt_decompress_s = best_seconds([&] {
        transformed_decompress<float>(szt_stream, nullptr, threads);
      });
      const obs::Snapshot snap = obs::snapshot();
      r.stages.predict_s = span_mean(snap, "sz.compress/predict");
      r.stages.histogram_s =
          span_mean(snap, "sz.compress/entropy_encode/histogram");
      r.stages.encode_s = span_mean(snap, "sz.compress/entropy_encode") -
                          r.stages.histogram_s;
      r.stages.entropy_decode_s =
          span_mean(snap, "sz.decompress/entropy_decode");
      r.stages.reconstruct_s = span_mean(snap, "sz.decompress/reconstruct");
    }

    store::DatasetOptions opts;
    opts.params.bound = 1e-3;
    opts.threads = threads;
    opts.rows_per_chunk = (f.dims[0] + threads - 1) / threads;
    std::vector<std::uint8_t> archive;
    r.chunked_compress_s = best_seconds([&] {
      store::ArchiveWriter w(&archive);
      w.add_dataset<float>("field", f.span(), f.dims, opts);
      w.finish();
    });
    r.chunked_decompress_s = best_seconds([&] {
      store::ArchiveReader(archive).load<float>("field", nullptr, threads);
    });

    std::vector<std::uint8_t> entropy_stream;
    r.entropy_encode_s = best_seconds([&] {
      entropy_stream = lossless::blocked_encode(codes, 65536, threads);
    });
    r.entropy_decode_s = best_seconds(
        [&] { lossless::blocked_decode(entropy_stream, threads); });

    std::printf(
        "t=%zu: fwd %.2f GB/s  inv %.2f GB/s | szt %.3f/%.3f s "
        "(predict %.3f hist %.3f enc %.3f | edec %.3f recon %.3f) | "
        "archive %.3f/%.3f s | entropy %.2f/%.2f GB/s\n",
        threads, gbs(bytes, r.transform_fwd_s), gbs(bytes, r.transform_inv_s),
        r.szt_compress_s, r.szt_decompress_s, r.stages.predict_s,
        r.stages.histogram_s, r.stages.encode_s, r.stages.entropy_decode_s,
        r.stages.reconstruct_s, r.chunked_compress_s, r.chunked_decompress_s,
        gbs(code_bytes, r.entropy_encode_s),
        gbs(code_bytes, r.entropy_decode_s));
    runs.push_back(r);
  }

  // --- per-kernel rates (single-threaded): raw throughput of the kernel
  // layer under the active dispatch, independent of pipeline plumbing.
  // predict_quant and huff_decode come from the t=1 pipeline stages (those
  // stages run exactly the kernels over the whole field); the log kernels
  // are timed directly on resident buffers.
  struct KernelRates {
    double log_fwd_gbs = 0, log_inv_gbs = 0, predict_quant_gbs = 0,
           huff_decode_gbs = 0;
  } kr;
  {
    const std::size_t kn =
        std::min<std::size_t>(f.values.size(), std::size_t{1} << 22);
    const double kbytes = static_cast<double>(kn) * sizeof(float);
    // log_fwd times the fused float block the f32 forward transform runs
    // (base 2: scale 1), over float input bytes.
    std::vector<float> kmapped(kn);
    std::vector<std::uint64_t> ksign((kn + 63) / 64), kzero((kn + 63) / 64);
    kr.log_fwd_gbs = gbs(kbytes, best_seconds([&] {
                           double max_abs_log = 0;
                           kernels::LogFwdFlags flags;
                           kernels::log_forward_f32_block(
                               f.values.data(), kmapped.data(), kn, 1.0,
                               ksign.data(), kzero.data(), &max_abs_log,
                               &flags);
                         }));
    // log_inv times the function the f32 inverse stage calls,
    // log_inverse_into at t=1, over the forward map of the same values.
    const auto ktr = log_forward<float>(
        std::span<const float>(f.values.data(), kn), 1e-3, 2.0, 1);
    std::vector<float> kinv(kn);
    kr.log_inv_gbs = gbs(kbytes, best_seconds([&] {
                           log_inverse_into<float>(ktr.mapped, ktr.negative,
                                                   ktr.log_base,
                                                   ktr.zero_threshold, kinv,
                                                   1);
                         }));
    kr.predict_quant_gbs = gbs(bytes, runs[0].stages.predict_s);
    kr.huff_decode_gbs = gbs(code_bytes, runs[0].entropy_decode_s);
    std::printf(
        "kernels (%s): log_fwd %.2f GB/s  log_inv %.2f GB/s  "
        "predict_quant %.2f GB/s  huff_decode %.2f GB/s\n",
        kernels::name(kernels::active()), kr.log_fwd_gbs, kr.log_inv_gbs,
        kr.predict_quant_gbs, kr.huff_decode_gbs);
  }

  // --- stats consistency rep: one single-threaded SZ_T round trip with the
  // registry recording, then check the per-stage spans against the walls.
  // A stage accounting that drifts more than 10% from the measured wall
  // time means the spans are placed or merged wrongly — fail the bench.
  int rc = 0;
  double stats_compress_wall = 0, stats_decompress_wall = 0;
  {
    obs::ScopedRecording rec;
    obs::reset();
    TransformedParams tp1;
    tp1.rel_bound = 1e-3;
    tp1.threads = 1;
    std::vector<std::uint8_t> stream;
    {
      Timer t;
      stream = transformed_compress<float>(f.values, f.dims, InnerCodec::kSz,
                                           tp1);
      stats_compress_wall = t.seconds();
    }
    {
      Timer t;
      transformed_decompress<float>(stream, nullptr, 1);
      stats_decompress_wall = t.seconds();
    }

    obs::Snapshot snap = obs::snapshot();
    auto span_s = [&](const char* path) {
      for (const auto& [p, stat] : snap.spans)
        if (p == path) return stat.seconds;
      return 0.0;
    };
    struct Check {
      const char* what;
      double sum, wall;
    };
    const Check checks[] = {
        {"transformed.compress stages",
         span_s("transformed.compress/pre") +
             span_s("transformed.compress/inner") ,
         stats_compress_wall},
        {"transformed.decompress stages",
         span_s("transformed.decompress/inner") +
             span_s("transformed.decompress/post"),
         stats_decompress_wall},
    };
    for (const Check& c : checks) {
      // Sub-spans tile their parent minus header/serialization slivers, so
      // the sum must stay within 10% of the wall (plus a small absolute
      // epsilon for tiny smoke-test fields).
      if (c.sum > c.wall * 1.10 + 2e-3 || c.sum < c.wall * 0.50 - 2e-3) {
        std::fprintf(stderr,
                     "stats check failed: %s sum %.6f s vs wall %.6f s\n",
                     c.what, c.sum, c.wall);
        rc = 1;
      }
    }
    std::printf(
        "stats rep (t=1): compress wall %.3f s (stage sum %.3f), "
        "decompress wall %.3f s (stage sum %.3f)\n",
        stats_compress_wall, checks[0].sum, stats_decompress_wall,
        checks[1].sum);

    // --- emit everything through the registry as transpwr-stats-v1.
    for (const Run& r : runs) {
      const std::string p = "t" + std::to_string(r.threads) + ".";
      obs::gauge_set(p + "transform_fwd_s", r.transform_fwd_s);
      obs::gauge_set(p + "transform_inv_s", r.transform_inv_s);
      obs::gauge_set(p + "transform_fwd_gbs", gbs(bytes, r.transform_fwd_s));
      obs::gauge_set(p + "transform_inv_gbs", gbs(bytes, r.transform_inv_s));
      obs::gauge_set(p + "szt_compress_s", r.szt_compress_s);
      obs::gauge_set(p + "szt_decompress_s", r.szt_decompress_s);
      obs::gauge_set(p + "chunked_compress_s", r.chunked_compress_s);
      obs::gauge_set(p + "chunked_decompress_s", r.chunked_decompress_s);
      obs::gauge_set(p + "chunked_total_s",
                     r.chunked_compress_s + r.chunked_decompress_s);
      obs::gauge_set(p + "stage_predict_s", r.stages.predict_s);
      obs::gauge_set(p + "stage_histogram_s", r.stages.histogram_s);
      obs::gauge_set(p + "stage_encode_s", r.stages.encode_s);
      obs::gauge_set(p + "stage_entropy_decode_s", r.stages.entropy_decode_s);
      obs::gauge_set(p + "stage_reconstruct_s", r.stages.reconstruct_s);
      obs::gauge_set(p + "entropy_encode_s", r.entropy_encode_s);
      obs::gauge_set(p + "entropy_decode_s", r.entropy_decode_s);
      obs::gauge_set(p + "entropy_encode_gbs",
                     gbs(code_bytes, r.entropy_encode_s));
      obs::gauge_set(p + "entropy_decode_gbs",
                     gbs(code_bytes, r.entropy_decode_s));
    }
    obs::gauge_set("entropy_code_bytes", code_bytes);
    obs::gauge_set("field_bytes", bytes);

    // Per-kernel rates; bench-smoke asserts every kernel reports a nonzero
    // rate, so a silently-disabled kernel path fails the suite.
    const std::pair<const char*, double> kernel_rates[] = {
        {"kernel.log_fwd_gbs", kr.log_fwd_gbs},
        {"kernel.log_inv_gbs", kr.log_inv_gbs},
        {"kernel.predict_quant_gbs", kr.predict_quant_gbs},
        {"kernel.huff_decode_gbs", kr.huff_decode_gbs},
    };
    for (const auto& [name, rate] : kernel_rates) {
      obs::gauge_set(name, rate);
      if (!(rate > 0)) {
        std::fprintf(stderr, "kernel rate check failed: %s = %f\n", name,
                     rate);
        rc = 1;
      }
    }

    const std::vector<std::pair<std::string, std::string>> meta = {
        {"bench", "throughput"},
        {"field_dims", f.dims.to_string()},
        {"reps", std::to_string(kReps)},
        {"warmup_reps", "1"},
        {"kernels", kernels::name(kernels::active())},
    };
    std::string text = obs::to_json(obs::snapshot(), meta);
    if (!obs::json_valid(text)) {
      std::fprintf(stderr, "stats check failed: emitted JSON is invalid\n");
      return 1;
    }
    obs::write_stats_json(out_path, meta);
  }
  std::printf("wrote %s\n", out_path.c_str());
  return rc;
}
