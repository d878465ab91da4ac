// Compressed-domain query tests: every Executor answer is differentially
// checked against decompress-then-scan over the same reconstructed values
// — the contract is *exact* agreement, not agreement within the error
// bound, because summaries are computed over the reconstruction at write
// time. Also covers the summary producer's special-value semantics, the
// v1 fallback (pinned by a committed golden archive written before the
// summary section existed), and corruption of the summary-bearing footer
// (bit flips and truncation reject with a clean StreamError).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "data/generators.h"
#include "obs/obs.h"
#include "query/query.h"
#include "query/query_json.h"
#include "store/archive.h"

namespace transpwr {
namespace query {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// One archived generator workload plus its reconstructed reference.
struct Workload {
  std::string name;
  std::vector<std::uint8_t> archive;
  std::vector<float> ref;  ///< decompress-then-scan ground truth
  Dims dims;
};

Workload make_workload(const std::string& name, const Field<float>& f,
                       std::size_t rows_per_chunk,
                       Scheme scheme = Scheme::kSzAbs) {
  Workload w;
  w.name = name;
  w.dims = f.dims;
  store::ArchiveWriter writer(&w.archive);
  store::DatasetOptions opts;
  opts.scheme = scheme;
  opts.params.bound = scheme == Scheme::kSzAbs ? 1.0 : 1e-2;
  opts.rows_per_chunk = rows_per_chunk;
  opts.threads = 1;
  writer.add_dataset<float>(name, f.span(), f.dims, opts);
  writer.finish();
  store::ArchiveReader reader(w.archive);
  w.ref = reader.load<float>(name, nullptr, 1);
  return w;
}

/// The six generator families the conformance sweep exercises, chunked so
/// every workload has several chunks and the last one is ragged. SZ_ABS
/// (bound 1.0) unless another scheme is asked for (relative bound 1e-2).
std::vector<Workload> all_workloads(Scheme scheme = Scheme::kSzAbs) {
  std::vector<Workload> out;
  out.push_back(make_workload(
      "nyx_dmd", gen::nyx_dark_matter_density(Dims(20, 12, 10), 1), 6,
      scheme));
  out.push_back(make_workload(
      "nyx_vel", gen::nyx_velocity(Dims(16, 10, 8), 2), 5, scheme));
  out.push_back(
      make_workload("hacc_vel", gen::hacc_velocity(1200, 3), 250, scheme));
  out.push_back(make_workload(
      "cesm_cloud", gen::cesm_cloud_fraction(Dims(24, 32), 4), 7, scheme));
  out.push_back(make_workload(
      "cesm_flux", gen::cesm_flux(Dims(18, 20), 5), 4, scheme));
  out.push_back(make_workload(
      "hurr_wind", gen::hurricane_wind(Dims(12, 10, 10), 6), 5, scheme));
  return out;
}

std::uint64_t ref_count(const std::vector<float>& v, const Predicate& p,
                        std::uint64_t lo_elem, std::uint64_t hi_elem) {
  std::uint64_t n = 0;
  for (std::uint64_t i = lo_elem; i < hi_elem; ++i)
    if (p.matches(static_cast<double>(v[i]))) ++n;
  return n;
}

Aggregate ref_aggregate(const std::vector<float>& v, std::uint64_t lo_elem,
                        std::uint64_t hi_elem) {
  Aggregate a;
  a.min = kInf;
  a.max = -kInf;
  for (std::uint64_t i = lo_elem; i < hi_elem; ++i) {
    const double d = static_cast<double>(v[i]);
    ++a.count;
    if (std::isnan(d)) {
      ++a.nan;
    } else if (std::isinf(d)) {
      ++(d > 0 ? a.pos_inf : a.neg_inf);
    } else {
      ++a.finite;
      a.min = std::min(a.min, d);
      a.max = std::max(a.max, d);
      a.sum += d;
    }
  }
  return a;
}

/// Thresholds that exercise all-match, none-match, and straddle pruning:
/// below the minimum, three interior percentiles, above the maximum.
std::vector<double> thresholds_for(const std::vector<float>& v) {
  std::vector<float> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  const double lo = sorted.front(), hi = sorted.back();
  return {std::nextafter(lo, -kInf), static_cast<double>(
              sorted[sorted.size() / 4]),
          static_cast<double>(sorted[sorted.size() / 2]),
          static_cast<double>(sorted[3 * sorted.size() / 4]),
          std::nextafter(hi, kInf)};
}

// --- summarize_values: the write-time producer ------------------------------

TEST(SummarizeValues, SpecialValueTallies) {
  const std::vector<float> v = {1.0f, static_cast<float>(kNaN), 2.0f,
                                static_cast<float>(kInf),
                                static_cast<float>(-kInf), -3.0f};
  const store::ChunkSummary s =
      store::summarize_values<float>(std::span<const float>(v));
  EXPECT_EQ(s.finite, 3u);
  EXPECT_EQ(s.nan, 1u);
  EXPECT_EQ(s.pos_inf, 1u);
  EXPECT_EQ(s.neg_inf, 1u);
  EXPECT_EQ(s.total(), v.size());
  EXPECT_DOUBLE_EQ(s.min, -3.0);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  std::uint64_t hist_sum = 0;
  for (auto h : s.hist) hist_sum += h;
  EXPECT_EQ(hist_sum, s.finite);
}

TEST(SummarizeValues, NoFiniteValuesKeepsSentinels) {
  const std::vector<double> v = {kNaN, kInf, -kInf, kNaN};
  const store::ChunkSummary s =
      store::summarize_values<double>(std::span<const double>(v));
  EXPECT_EQ(s.finite, 0u);
  EXPECT_EQ(s.min, kInf);
  EXPECT_EQ(s.max, -kInf);
  EXPECT_EQ(s.sum, 0.0);
  for (auto h : s.hist) EXPECT_EQ(h, 0u);
}

TEST(SummarizeValues, ConstantChunkLandsInBucketZero) {
  const std::vector<float> v(37, 5.5f);
  const store::ChunkSummary s =
      store::summarize_values<float>(std::span<const float>(v));
  EXPECT_DOUBLE_EQ(s.min, 5.5);
  EXPECT_DOUBLE_EQ(s.max, 5.5);
  EXPECT_EQ(s.hist[0], 37u);
}

TEST(SummarizeValues, ExtremeRangeDoesNotLoseValues) {
  // max - min overflows double: the bucket ratio must not go NaN and drop
  // values out of the histogram (validate_summary would then reject the
  // writer's own archive).
  const std::vector<double> v = {-1.7e308, 1.7e308, 0.0};
  const store::ChunkSummary s =
      store::summarize_values<double>(std::span<const double>(v));
  std::uint64_t hist_sum = 0;
  for (auto h : s.hist) hist_sum += h;
  EXPECT_EQ(hist_sum, 3u);
}

// --- parse_predicate ---------------------------------------------------------

TEST(ParsePredicate, AcceptTable) {
  struct Case {
    const char* spec;
    Cmp cmp;
    double threshold;
  };
  const Case accept[] = {
      {"gt:1.5", Cmp::kGt, 1.5},   {"ge:-2", Cmp::kGe, -2.0},
      {"lt:1e9", Cmp::kLt, 1e9},   {"le:0", Cmp::kLe, 0.0},
      {"gt:-0.25", Cmp::kGt, -0.25},
  };
  for (const auto& c : accept) {
    const Predicate p = parse_predicate(c.spec);
    EXPECT_EQ(p.cmp, c.cmp) << c.spec;
    EXPECT_DOUBLE_EQ(p.threshold, c.threshold) << c.spec;
  }
}

TEST(ParsePredicate, RejectTable) {
  const char* reject[] = {"",       "gt",      "gt:",     "eq:1",
                          "gt:abc", "gt:1.5x", "gt:nan",  "gt:inf",
                          "gt:1e999", ":1",    "GT:1"};
  for (const char* spec : reject)
    EXPECT_THROW(parse_predicate(spec), ParamError) << spec;
}

// --- differential: every answer vs decompress-then-scan ----------------------

TEST(QueryDifferential, CountMatchesScanOnAllWorkloads) {
  for (const Workload& w : all_workloads()) {
    store::ArchiveReader reader(w.archive);
    ASSERT_EQ(reader.version(), 2u) << w.name;
    ASSERT_TRUE(reader.dataset(w.name).has_summaries()) << w.name;
    Executor ex(reader, w.name);
    const std::uint64_t rows = w.dims[0];
    const std::uint64_t row_elems = w.dims.count() / rows;
    const std::vector<RowRange> ranges = {
        {0, 0}, {0, rows}, {1, rows - 1}, {rows / 3, 2 * rows / 3 + 1}};
    for (double t : thresholds_for(w.ref)) {
      for (Cmp cmp : {Cmp::kGt, Cmp::kGe, Cmp::kLt, Cmp::kLe}) {
        const Predicate p{cmp, t};
        for (const RowRange& r : ranges) {
          const std::uint64_t lo = (r.begin == 0 && r.end == 0) ? 0 : r.begin;
          const std::uint64_t hi =
              (r.begin == 0 && r.end == 0) ? rows : r.end;
          const CountResult got = ex.count_where(p, r);
          EXPECT_EQ(got.matching,
                    ref_count(w.ref, p, lo * row_elems, hi * row_elems))
              << w.name << " " << cmp_name(cmp) << ":" << t << " rows "
              << lo << ":" << hi;
          EXPECT_EQ(got.total, (hi - lo) * row_elems);
          if (lo == 0 && hi == rows) {
            EXPECT_EQ(got.chunks_pruned + got.chunks_decoded,
                      reader.dataset(w.name).chunks.size());
          }
        }
      }
    }
  }
}

TEST(QueryDifferential, AggregateMatchesScanOnAllWorkloads) {
  for (const Workload& w : all_workloads()) {
    store::ArchiveReader reader(w.archive);
    Executor ex(reader, w.name);
    const std::uint64_t rows = w.dims[0];
    const std::uint64_t row_elems = w.dims.count() / rows;
    const std::vector<RowRange> ranges = {
        {0, 0}, {1, rows - 1}, {rows / 2, rows / 2 + 1}};
    for (const RowRange& r : ranges) {
      const std::uint64_t lo = (r.begin == 0 && r.end == 0) ? 0 : r.begin;
      const std::uint64_t hi = (r.begin == 0 && r.end == 0) ? rows : r.end;
      const Aggregate got = ex.aggregate(r);
      const Aggregate want =
          ref_aggregate(w.ref, lo * row_elems, hi * row_elems);
      EXPECT_EQ(got.count, want.count) << w.name;
      EXPECT_EQ(got.finite, want.finite) << w.name;
      EXPECT_EQ(got.nan, want.nan) << w.name;
      EXPECT_EQ(got.pos_inf, want.pos_inf) << w.name;
      EXPECT_EQ(got.neg_inf, want.neg_inf) << w.name;
      EXPECT_DOUBLE_EQ(got.min, want.min) << w.name;
      EXPECT_DOUBLE_EQ(got.max, want.max) << w.name;
      // Per-chunk partial sums associate differently than one sequential
      // fold; the values are identical, so only rounding can differ.
      EXPECT_NEAR(got.sum, want.sum,
                  1e-9 * std::max(1.0, std::abs(want.sum)))
          << w.name;
    }
  }
}

TEST(QueryDifferential, FindChunksIsExactWithoutDecoding) {
  for (const Workload& w : all_workloads()) {
    store::ArchiveReader reader(w.archive);
    Executor ex(reader, w.name);
    const auto& ds = reader.dataset(w.name);
    const std::uint64_t row_elems = w.dims.count() / w.dims[0];
    for (double t : thresholds_for(w.ref)) {
      for (Cmp cmp : {Cmp::kGt, Cmp::kGe, Cmp::kLt, Cmp::kLe}) {
        const Predicate p{cmp, t};
        const ChunkMatchResult got = ex.find_chunks(p);
        EXPECT_EQ(got.chunks_total, ds.chunks.size());
        EXPECT_EQ(got.chunks_pruned, ds.chunks.size());
        EXPECT_EQ(got.chunks_decoded, 0u)
            << "v2 find_chunks must never decode";
        // Reference: which chunks actually contain a matching value?
        std::vector<std::uint64_t> want;
        std::uint64_t row = 0;
        for (std::size_t c = 0; c < ds.chunks.size(); ++c) {
          const std::uint64_t lo = row * row_elems;
          const std::uint64_t hi = (row + ds.chunks[c].rows) * row_elems;
          if (ref_count(w.ref, p, lo, hi) > 0) want.push_back(c);
          row += ds.chunks[c].rows;
        }
        ASSERT_EQ(got.matches.size(), want.size())
            << w.name << " " << cmp_name(cmp) << ":" << t;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got.matches[i].chunk, want[i]);
          EXPECT_TRUE(got.matches[i].decided);
        }
      }
    }
  }
}

TEST(QueryDifferential, PreviewSamplesTheReconstruction) {
  for (const Workload& w : all_workloads()) {
    store::ArchiveReader reader(w.archive);
    Executor ex(reader, w.name);
    const std::uint64_t rows = w.dims[0];
    const std::uint64_t row_elems = w.dims.count() / rows;
    for (std::uint64_t points : {std::uint64_t{1}, std::uint64_t{7}, rows}) {
      const Preview pv = ex.preview(points, {0, 0});
      EXPECT_EQ(pv.stride, std::max<std::uint64_t>(1, rows / points));
      ASSERT_EQ(pv.rows.size(), pv.values.size());
      ASSERT_FALSE(pv.rows.empty());
      for (std::size_t i = 0; i < pv.rows.size(); ++i) {
        EXPECT_EQ(pv.rows[i], i * pv.stride);
        EXPECT_DOUBLE_EQ(
            pv.values[i],
            static_cast<double>(w.ref[pv.rows[i] * row_elems]))
            << w.name << " row " << pv.rows[i];
      }
    }
  }
}

TEST(QueryDifferential, StoredSummariesMatchRecomputation) {
  // The archived summary blocks must be exactly what summarize_values
  // produces over each decoded chunk — the writer may not cut corners.
  const Workload w = all_workloads().front();
  store::ArchiveReader reader(w.archive);
  const auto& ds = reader.dataset(w.name);
  ASSERT_TRUE(ds.has_summaries());
  for (std::size_t c = 0; c < ds.chunks.size(); ++c) {
    const auto values = reader.load_chunk<float>(w.name, c);
    const store::ChunkSummary want =
        store::summarize_values<float>(std::span<const float>(values));
    const store::ChunkSummary& got = ds.summaries[c];
    EXPECT_EQ(got.finite, want.finite);
    EXPECT_EQ(got.nan, want.nan);
    EXPECT_DOUBLE_EQ(got.min, want.min);
    EXPECT_DOUBLE_EQ(got.max, want.max);
    EXPECT_DOUBLE_EQ(got.sum, want.sum);
    EXPECT_EQ(got.hist, want.hist);
  }
}

TEST(QueryDifferential, StoredSummariesMatchRecomputationEveryScheme) {
  // The writer builds summaries from the compressor's reconstruction (the
  // SZ family's encoder-side one, a decode for the rest); for every scheme
  // they must equal summarize_values over the decoded chunk exactly, with
  // no ulp of slack.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (Scheme s : all_schemes()) {
    for (const Workload& w : all_workloads(s)) {
      SCOPED_TRACE(std::string(scheme_name(s)) + " " + w.name);
      store::ArchiveReader reader(w.archive);
      const auto& ds = reader.dataset(w.name);
      ASSERT_EQ(ds.summaries.size(), ds.chunks.size());
      for (std::size_t c = 0; c < ds.chunks.size(); ++c) {
        const auto values = reader.load_chunk<float>(w.name, c);
        const store::ChunkSummary want =
            store::summarize_values<float>(std::span<const float>(values));
        const store::ChunkSummary& got = ds.summaries[c];
        EXPECT_EQ(bits(got.min), bits(want.min)) << "chunk " << c;
        EXPECT_EQ(bits(got.max), bits(want.max)) << "chunk " << c;
        EXPECT_EQ(bits(got.sum), bits(want.sum)) << "chunk " << c;
        EXPECT_EQ(got.finite, want.finite) << "chunk " << c;
        EXPECT_EQ(got.nan, want.nan) << "chunk " << c;
        EXPECT_EQ(got.pos_inf, want.pos_inf) << "chunk " << c;
        EXPECT_EQ(got.neg_inf, want.neg_inf) << "chunk " << c;
        EXPECT_EQ(got.hist, want.hist) << "chunk " << c;
      }
    }
  }
}

TEST(QueryDifferential, JsonDocumentsAreValid) {
  const Workload w = all_workloads().front();
  store::ArchiveReader reader(w.archive);
  Executor ex(reader, w.name);
  const RowRange full = ex.full_range();
  const Predicate p{Cmp::kGt, static_cast<double>(w.ref[0])};
  EXPECT_TRUE(obs::json_valid(summary_json(ex)));
  EXPECT_TRUE(obs::json_valid(chunks_json(ex, p, ex.find_chunks(p))));
  EXPECT_TRUE(obs::json_valid(aggregate_json(ex, full, ex.aggregate(full))));
  EXPECT_TRUE(
      obs::json_valid(count_json(ex, p, full, ex.count_where(p, full))));
  EXPECT_TRUE(
      obs::json_valid(preview_json(ex, full, ex.preview(8, full))));
}

// --- parameter validation ----------------------------------------------------

TEST(QueryParams, RowRangeOutOfBoundsThrows) {
  const Workload w = make_workload(
      "d", gen::cesm_cloud_fraction(Dims(10, 8), 9), 3);
  store::ArchiveReader reader(w.archive);
  Executor ex(reader, "d");
  EXPECT_THROW(ex.aggregate({5, 3}), ParamError);
  EXPECT_THROW(ex.aggregate({0, 11}), ParamError);
  EXPECT_THROW(ex.count_where({Cmp::kGt, 0}, {10, 10}), ParamError);
  EXPECT_THROW(ex.preview(0, {0, 0}), ParamError);
}

// --- fallback: v2 without summaries and the committed v1 golden --------------

TEST(QueryFallback, V2ArchiveWithoutSummariesScansEverything) {
  auto f = gen::cesm_flux(Dims(12, 10), 11);
  std::vector<std::uint8_t> buf;
  {
    store::ArchiveWriter writer(&buf);
    store::DatasetOptions opts;
    opts.scheme = Scheme::kSzAbs;
    opts.params.bound = 1.0;
    opts.rows_per_chunk = 4;
    opts.threads = 1;
    opts.summaries = false;
    writer.add_dataset<float>("d", f.span(), f.dims, opts);
    writer.finish();
  }
  store::ArchiveReader reader(buf);
  EXPECT_EQ(reader.version(), 2u);
  EXPECT_FALSE(reader.dataset("d").has_summaries());
  const auto ref = reader.load<float>("d", nullptr, 1);
  Executor ex(reader, "d");
  const Predicate p{Cmp::kGt, static_cast<double>(ref[ref.size() / 2])};
  const CountResult got = ex.count_where(p, {0, 0});
  EXPECT_EQ(got.matching, ref_count(ref, p, 0, ref.size()));
  EXPECT_EQ(got.chunks_pruned, 0u);
  EXPECT_EQ(got.chunks_decoded, reader.dataset("d").chunks.size());
}

TEST(QueryFallback, CommittedV1GoldenArchiveStillAnswersEverything) {
  // Written by the pre-summary writer: TPAR v1, no summary section. The
  // reader must load/verify it unchanged and every query must fall back
  // to full scans with identical answers.
  const std::string path =
      std::string(TRANSPWR_GOLDEN_DIR) + "/v1_no_summaries.tpar";
  store::ArchiveReader reader(path);
  EXPECT_EQ(reader.version(), 1u);
  reader.verify();
  ASSERT_EQ(reader.datasets().size(), 1u);
  const auto& ds = reader.datasets().front();
  EXPECT_FALSE(ds.has_summaries());
  EXPECT_EQ(ds.chunks.size(), 4u);
  const auto ref = reader.load<float>(ds.name, nullptr, 1);
  Executor ex(reader, ds.name);

  const Aggregate a = ex.aggregate({0, 0});
  const Aggregate want = ref_aggregate(ref, 0, ref.size());
  EXPECT_EQ(a.finite, want.finite);
  EXPECT_DOUBLE_EQ(a.min, want.min);
  EXPECT_DOUBLE_EQ(a.max, want.max);
  EXPECT_EQ(a.chunks_pruned, 0u);
  EXPECT_EQ(a.chunks_decoded, ds.chunks.size());

  const Predicate p{Cmp::kGe, want.min + 0.5 * (want.max - want.min)};
  const CountResult c = ex.count_where(p, {0, 0});
  EXPECT_EQ(c.matching, ref_count(ref, p, 0, ref.size()));
  EXPECT_EQ(c.chunks_pruned, 0u);

  const ChunkMatchResult fc = ex.find_chunks(p);
  EXPECT_EQ(fc.chunks_total, 4u);
  EXPECT_EQ(fc.chunks_decoded, 4u);

  const Preview pv = ex.preview(8, {0, 0});
  const std::uint64_t row_elems = ds.dims.count() / ds.dims[0];
  for (std::size_t i = 0; i < pv.rows.size(); ++i)
    EXPECT_DOUBLE_EQ(pv.values[i],
                     static_cast<double>(ref[pv.rows[i] * row_elems]));
}

// --- corruption over the summary-bearing footer ------------------------------

struct FooterBounds {
  std::size_t footer_start = 0;
  std::size_t size = 0;
};

FooterBounds footer_bounds(const std::vector<std::uint8_t>& bytes) {
  // Trailer: u64 footer_fnv, u64 footer_size, "TPAE".
  FooterBounds b;
  b.size = bytes.size();
  std::uint64_t footer_size = 0;
  std::memcpy(&footer_size, bytes.data() + bytes.size() - 12, 8);
  b.footer_start = bytes.size() - 20 - static_cast<std::size_t>(footer_size);
  return b;
}

std::vector<std::uint8_t> summarized_archive() {
  auto f = gen::nyx_dark_matter_density(Dims(9, 4, 4), 13);
  std::vector<std::uint8_t> buf;
  store::ArchiveWriter writer(&buf);
  store::DatasetOptions opts;
  opts.scheme = Scheme::kSzAbs;
  opts.params.bound = 1.0;
  opts.rows_per_chunk = 4;  // 4, 4, 1
  opts.threads = 1;
  writer.add_dataset<float>("d", f.span(), f.dims, opts);
  writer.finish();
  return buf;
}

TEST(QueryCorruption, FooterBitFlipsAreRejected) {
  // The summary section lives inside the checksummed footer: any single
  // flipped bit there (or anywhere else in footer/trailer) must be a
  // clean StreamError at open, never a crash or silently wrong summary.
  auto clean = summarized_archive();
  store::ArchiveReader(std::span<const std::uint8_t>(clean)).verify();
  const FooterBounds b = footer_bounds(clean);
  auto bytes = clean;
  for (std::size_t byte = b.footer_start; byte < b.size; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW(
          store::ArchiveReader{std::span<const std::uint8_t>(bytes)},
          StreamError)
          << "flip at byte " << byte << " bit " << bit;
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(bytes, clean);
}

TEST(QueryCorruption, TruncationInsideFooterIsRejected) {
  const auto clean = summarized_archive();
  const FooterBounds b = footer_bounds(clean);
  for (std::size_t len = b.footer_start; len < clean.size(); ++len) {
    const std::span<const std::uint8_t> cut(clean.data(), len);
    EXPECT_THROW(store::ArchiveReader{cut}, StreamError)
        << "truncated to " << len << " bytes";
  }
}

TEST(QueryCorruption, ChecksumFixedFlipsNeverEscapeTypedErrors) {
  // A hand-built footer can carry a valid checksum over invalid summary
  // bytes: re-seal the trailer FNV after each flip and require that open
  // either succeeds (the flip made another representable summary) or
  // throws a typed Error — validate_summary turns semantic nonsense into
  // StreamError instead of letting queries read garbage tallies.
  auto clean = summarized_archive();
  const FooterBounds b = footer_bounds(clean);
  auto bytes = clean;
  for (std::size_t byte = b.footer_start; byte + 20 < b.size; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const std::uint64_t fnv = fnv1a64(std::span<const std::uint8_t>(
          bytes.data() + b.footer_start, b.size - 20 - b.footer_start));
      std::memcpy(bytes.data() + b.size - 20, &fnv, 8);
      try {
        store::ArchiveReader reader{std::span<const std::uint8_t>(bytes)};
        // Structurally valid: the directory invariants must still hold.
        for (const auto& ds : reader.datasets()) {
          if (ds.has_summaries()) {
            EXPECT_EQ(ds.summaries.size(), ds.chunks.size());
          }
        }
      } catch (const Error&) {
        // rejected with a typed error — fine
      }
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

}  // namespace
}  // namespace query
}  // namespace transpwr
