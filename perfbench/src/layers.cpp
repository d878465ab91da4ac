// Per-layer metrics of the traced run. Each layer is measured from
// outside: isolated replays time calls into its public functions on the
// workload's own inputs, and the spans and counters the library already
// records (obs registry) are copied, never added to.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>

#include "common/checksum.h"
#include "common/timer.h"
#include "core/compressor.h"
#include "core/log_transform.h"
#include "kernels/log_batch.h"
#include "net/client.h"
#include "perfbench.h"
#include "query/query.h"
#include "store/chunk_cache.h"
#include "trace.h"

namespace perfbench {

using transpwr::Timer;
namespace store = transpwr::store;

namespace {

/// Median over `trials` of bytes / seconds (GB/s, 1e9) for `fn`, each
/// trial repeating it until at least `min_s` has passed.
template <typename Fn>
double rate_gbs(double bytes, Fn&& fn, int trials = 5, double min_s = 0.05) {
  std::vector<double> rates;
  for (int t = 0; t < trials; ++t) {
    Timer timer;
    std::size_t reps = 0;
    do {
      fn();
      ++reps;
    } while (timer.seconds() < min_s);
    rates.push_back(bytes * static_cast<double>(reps) / timer.seconds() / 1e9);
  }
  return median(rates);
}

/// Mean seconds per call of `fn(i)` over `n` calls.
template <typename Fn>
double mean_s(std::size_t n, Fn&& fn) {
  Timer t;
  for (std::size_t i = 0; i < n; ++i) fn(i);
  return t.seconds() / static_cast<double>(n);
}

volatile std::uint64_t g_sink = 0;  // keeps replay results observable

void replay_common(const Field& f, Report& rep) {
  trace::Span span("replay.common");
  constexpr std::size_t kBytes = 128 << 10;  // one 8-row serve response
  std::vector<std::uint8_t> src(kBytes), dst(kBytes);
  std::memcpy(src.data(), f.values.data(), std::min(kBytes, f.bytes()));
  rep.layer("common.fnv1a64_gbs", rate_gbs(kBytes, [&] {
              g_sink = g_sink + transpwr::fnv1a64(src);
            }),
            "GB/s");
  rep.layer("common.memcpy_gbs", rate_gbs(kBytes, [&] {
              std::memcpy(dst.data(), src.data(), kBytes);
              g_sink = g_sink + dst[kBytes / 2];
            }),
            "GB/s");
}

void replay_kernels(const Field& f, Report& rep) {
  trace::Span span("replay.kernels");
  constexpr std::size_t kN = std::size_t{4} << 20;  // 4 Mi doubles
  std::vector<double> in(kN), logs(kN), out(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double v =
        std::abs(static_cast<double>(f.values[i % f.values.size()]));
    in[i] = v > 0 ? v : 1.0;
  }
  const double bytes = static_cast<double>(kN * sizeof(double));
  rep.layer("kernels.log2_gbs", rate_gbs(bytes, [&] {
              transpwr::kernels::log2_scaled_batch(in.data(), logs.data(), kN,
                                                   1.0);
            }, 3),
            "GB/s");
  rep.layer("kernels.exp2_gbs", rate_gbs(bytes, [&] {
              transpwr::kernels::exp2_scaled_batch(logs.data(), out.data(), kN,
                                                   1.0);
              g_sink = g_sink + static_cast<std::uint64_t>(out[kN / 2]);
            }, 3),
            "GB/s");
}

void replay_core(const std::vector<Field>& fields, Report& rep) {
  trace::Span span("replay.core");
  double bytes = 0;
  for (const Field& f : fields) bytes += static_cast<double>(f.bytes());
  std::vector<transpwr::TransformResult<float>> fwd(fields.size());
  rep.layer("core.log_forward_gbs", rate_gbs(bytes, [&] {
              for (std::size_t i = 0; i < fields.size(); ++i)
                fwd[i] = transpwr::log_forward<float>(
                    std::span<const float>(fields[i].values), kRelBound, 2.0,
                    nproc());
            }, 3, 0),
            "GB/s");
  for (std::size_t threads : {nproc(), std::size_t{1}}) {
    const double gbs = rate_gbs(bytes, [&] {
      for (const auto& r : fwd) {
        auto inv = transpwr::log_inverse<float>(
            std::span<const float>(r.mapped), r.negative, r.log_base,
            r.zero_threshold, threads);
        g_sink = g_sink + inv.size();
      }
    }, 3, 0);
    rep.layer(threads == 1 ? "core.log_inverse_gbs.t1" : "core.log_inverse_gbs",
              gbs, "GB/s");
  }
}

/// The writer's summary work replayed at t=1: summarize_values over every
/// input field, plus the per-chunk decode that feeds the real summaries
/// (read_chunk_bytes -> SZ_T decompress -> summarize_values).
void replay_summaries(const LayerInputs& in, store::ArchiveReader& reader,
                      Report& rep) {
  trace::Span span("replay.store_summary");
  Timer t;
  for (const Field& f : *in.fields) {
    auto s = store::summarize_values<float>(std::span<const float>(f.values));
    g_sink = g_sink + s.finite;
  }
  auto comp = transpwr::make_compressor(transpwr::Scheme::kSzT);
  for (const auto& ds : reader.datasets()) {
    for (std::size_t c = 0; c < ds.chunks.size(); ++c) {
      auto bytes = reader.read_chunk_bytes(ds.name, c);
      auto rec = comp->decompress_f32(bytes, nullptr);
      auto s = store::summarize_values<float>(std::span<const float>(rec));
      g_sink = g_sink + s.finite;
    }
  }
  rep.layer("store.summary_s", t.seconds(), "s");
}

std::vector<std::uint64_t> seeded_starts(std::uint64_t seed, std::size_t n,
                                         std::uint64_t rows,
                                         std::uint64_t span_rows) {
  std::mt19937_64 rng(seed * 7919u + 17u);
  std::vector<std::uint64_t> v(n);
  for (auto& b : v) b = rng() % (rows - span_rows + 1);
  return v;
}

void replay_store_and_query(const LayerInputs& in, store::ArchiveReader& reader,
                            Report& rep) {
  const auto& ds = reader.dataset(in.dataset);
  const std::uint64_t rows = ds.dims[0];
  {
    // Warm ROI reads: 16 offsets, touched once so their chunks are cached
    // (16 offsets stay within every workload's cache budget), then timed.
    trace::Span span("replay.store_roi_hit");
    const auto starts = seeded_starts(in.seed, 16, rows, in.roi_rows);
    for (auto b : starts)
      reader.read_rows<float>(in.dataset, b, b + in.roi_rows);
    const double s = mean_s(400, [&](std::size_t i) {
      auto b = starts[i % starts.size()];
      auto v = reader.read_rows<float>(in.dataset, b, b + in.roi_rows,
                                       nullptr, 1);
      g_sink = g_sink + v.size();
    });
    rep.layer("store.roi_hit_us", 1e6 * s, "us");
  }
  {
    trace::Span span("replay.query_local");
    transpwr::query::Executor ex(reader, in.dataset);
    const transpwr::query::Predicate gt1{transpwr::query::Cmp::kGt, 1.0};
    const auto starts = seeded_starts(in.seed + 1, 50, rows, kQueryRows);
    const double count_s = mean_s(starts.size(), [&](std::size_t i) {
      auto r = ex.count_where(gt1, {starts[i], starts[i] + kQueryRows});
      g_sink = g_sink + r.matching;
    });
    const double agg_s = mean_s(starts.size(), [&](std::size_t i) {
      auto a = ex.aggregate({starts[i], starts[i] + kQueryRows});
      g_sink = g_sink + a.finite;
    });
    rep.layer("query.local_count_ms", 1e3 * count_s, "ms");
    rep.layer("query.local_agg_ms", 1e3 * agg_s, "ms");
  }
  {
    // Cold chunk decodes: the cache is off (and cleared) for this replay.
    trace::Span span("replay.store_chunk_decode");
    store::ScopedCacheCapacity off(0);
    const std::size_t n = std::min<std::size_t>(16, ds.chunks.size());
    const double s = mean_s(n, [&](std::size_t i) {
      auto v = reader.load_chunk<float>(in.dataset,
                                        i * ds.chunks.size() / n);
      g_sink = g_sink + v.size();
    });
    rep.layer("store.chunk_decode_ms", 1e3 * s, "ms");
  }
}

void replay_ping(std::uint16_t port, Report& rep) {
  trace::Span span("replay.net_ping");
  transpwr::net::Client cl("127.0.0.1", port);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    Timer t;
    cl.ping();
    us.push_back(1e6 * t.seconds());
  }
  rep.layer("net.ping_rtt_us", median(us), "us");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void run_layer_replays(const LayerInputs& in, Report& rep) {
  trace::Span span("replays");
  const std::vector<Field>& fields = *in.fields;
  replay_common(fields[0], rep);
  replay_kernels(fields[0], rep);
  replay_core(fields, rep);
  store::ArchiveReader reader(in.archive_path);
  replay_summaries(in, reader, rep);
  replay_ping(in.port, rep);
  replay_store_and_query(in, reader, rep);
}

void report_registry_layers(const ObsTotals& dumps, std::size_t n_dumps,
                            const ObsTotals& loads, std::size_t n_loads,
                            const ObsTotals& mix, std::uint64_t mix_requests,
                            Report& rep) {
  const double nd = static_cast<double>(std::max<std::size_t>(1, n_dumps));
  const double nl = static_cast<double>(std::max<std::size_t>(1, n_loads));
  rep.layer("core.post_share",
            ratio(loads.span("transformed.decompress/post").seconds,
                  loads.span("transformed.decompress").seconds),
            "ratio");
  rep.layer("sz.predict_s", dumps.span("sz.compress/predict").seconds / nd,
            "s");
  rep.layer("sz.reconstruct_s",
            loads.span("sz.decompress/reconstruct").seconds / nl, "s");
  rep.layer("lossless.entropy_encode_s",
            dumps.span("sz.compress/entropy_encode").seconds / nd, "s");
  rep.layer("lossless.entropy_decode_s",
            loads.span("sz.decompress/entropy_decode").seconds / nl, "s");

  const double hits = static_cast<double>(mix.counter("archive.cache_hits"));
  const double misses =
      static_cast<double>(mix.counter("archive.cache_misses"));
  rep.layer("store.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  rep.layer("store.decodes_per_request",
            ratio(misses, static_cast<double>(mix_requests)), "count");
  rep.layer("query.chunks_decoded_per_query",
            ratio(static_cast<double>(mix.counter("query.chunks_decoded")),
                  static_cast<double>(mix.counter("query.requests"))),
            "count");
  rep.layer("net.bytes_out_per_request",
            ratio(static_cast<double>(mix.counter("server.bytes_out")),
                  static_cast<double>(mix.counter("server.requests"))),
            "B");
  for (const auto& [span, name] :
       {std::pair<const char*, const char*>{"server.op_read_rows",
                                            "server.op_read_rows_us"},
        {"server.op_query", "server.op_query_us"},
        {"server.http", "server.http_us"}}) {
    const auto s = mix.span(span);
    rep.layer(name, 1e6 * ratio(s.seconds, static_cast<double>(s.count)),
              "us");
  }
}

std::vector<trace::NameStats> finish_trace(const Options& opt, Report& rep) {
  trace::enable(false);
  const auto spans = trace::collect();
  const auto summary = trace::summarize(spans);
  std::printf("\n%-26s %8s %12s %12s %9s\n", "bench span", "count",
              "total_ms", "self_ms", "covered");
  double worst = 1.0;
  std::string worst_name = "-";
  for (const auto& s : summary) {
    const double covered = ratio(s.children_s, s.parents_s);
    if (s.with_children)
      std::printf("%-26s %8llu %12.3f %12.3f %8.1f%%\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), 1e3 * s.total_s,
                  1e3 * s.self_s, 100 * covered);
    else
      std::printf("%-26s %8llu %12.3f %12.3f %9s\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), 1e3 * s.total_s,
                  1e3 * s.self_s, "-");
    if (s.with_children && std::abs(covered - 1) > std::abs(worst - 1)) {
      worst = covered;
      worst_name = s.name;
    }
  }
  rep.fact("trace.spans", static_cast<double>(spans.size()));
  rep.fact("trace.worst_child_coverage", worst);
  rep.assert_that(worst >= 0.9 && worst <= 1.1,
                  "child spans cover 90-110% of their parent's wall time "
                  "(worst: " + worst_name + ")");
  trace::write_json(opt.work_dir + "/trace-" + opt.workload + "-seed" +
                        std::to_string(opt.seed) + ".json",
                    spans, summary);
  return summary;
}

void report_store_spans(const std::vector<trace::NameStats>& summary,
                        Report& rep) {
  auto mean = [&](const char* name) {
    for (const auto& s : summary)
      if (s.name == name) return ratio(s.total_s, static_cast<double>(s.count));
    return 0.0;
  };
  rep.layer("store.add_dataset_s", mean("store.add_dataset"), "s");
  rep.layer("store.finish_s", mean("store.finish"), "s");
  rep.layer("store.load_s", mean("store.load"), "s");
  rep.layer("store.open_us", 1e6 * mean("store.open"), "us");
}

}  // namespace perfbench
