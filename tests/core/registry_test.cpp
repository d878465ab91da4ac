#include "core/compressor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <type_traits>

#include "common/error.h"
#include "data/generators.h"
#include "metrics/metrics.h"
#include "obs/obs.h"

namespace transpwr {
namespace {

TEST(Registry, NamesRoundTrip) {
  for (Scheme s : all_schemes()) {
    EXPECT_EQ(scheme_from_name(scheme_name(s)), s);
  }
  EXPECT_THROW(scheme_from_name("NOPE"), ParamError);
}

TEST(Registry, AllSchemesListedOnce) {
  auto schemes = all_schemes();
  EXPECT_EQ(schemes.size(), 8u);
  for (std::size_t i = 0; i < schemes.size(); ++i)
    for (std::size_t j = i + 1; j < schemes.size(); ++j)
      EXPECT_NE(schemes[i], schemes[j]);
}

TEST(Registry, OutOfRangeSchemeIsRefused) {
  EXPECT_THROW(make_compressor(static_cast<Scheme>(8)), ParamError);
  EXPECT_THROW(make_compressor(static_cast<Scheme>(255)), ParamError);
  EXPECT_STREQ(scheme_name(static_cast<Scheme>(8)), "unknown");
}

/// Call count of the span at `path`, or 0 when none was recorded.
std::uint64_t span_count(const obs::Snapshot& snap, const std::string& path) {
  for (const auto& [name, stat] : snap.spans)
    if (name == path) return stat.count;
  return 0;
}

template <typename T>
void check_recorded_round_trip(Scheme s) {
  std::vector<T> data(600);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<T>(50.0 + 10.0 * std::sin(0.05 * i));
  CompressorParams p;
  p.bound = 1e-2;
  obs::ScopedRecording rec;
  obs::reset();
  auto c = make_compressor(s);
  auto stream = c->compress(std::span<const T>(data), Dims(20, 30), p);
  Dims dims;
  std::vector<T> out;
  if constexpr (std::is_same_v<T, float>)
    out = c->decompress_f32(stream, &dims);
  else
    out = c->decompress_f64(stream, &dims);
  EXPECT_EQ(dims, Dims(20, 30));
  EXPECT_EQ(out.size(), data.size());

  const obs::Snapshot snap = obs::snapshot();
  const std::string name = scheme_name(s);
  EXPECT_EQ(span_count(snap, "compress." + name), 1u);
  EXPECT_EQ(span_count(snap, "decompress." + name), 1u);
  EXPECT_EQ(obs::counter_value("codec.bytes_in"), data.size() * sizeof(T));
  EXPECT_EQ(obs::counter_value("codec.bytes_out"), stream.size());
}

TEST(Registry, EveryRoundTripRecordsItsSpansAndByteCounters) {
  for (Scheme s : all_schemes()) {
    SCOPED_TRACE(scheme_name(s));
    check_recorded_round_trip<float>(s);
    check_recorded_round_trip<double>(s);
  }
}

TEST(Registry, CompressorReportsItsScheme) {
  for (Scheme s : all_schemes()) {
    auto c = make_compressor(s);
    EXPECT_EQ(c->scheme(), s);
    EXPECT_EQ(c->name(), scheme_name(s));
  }
}

TEST(Registry, DoubleInterfaceWorks) {
  std::vector<double> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 100.0 + std::sin(0.1 * static_cast<double>(i));
  for (Scheme s : all_schemes()) {
    SCOPED_TRACE(scheme_name(s));
    auto c = make_compressor(s);
    CompressorParams p;
    p.bound = s == Scheme::kSzAbs ? 1.0 : 1e-3;
    auto stream = c->compress(std::span<const double>(data), Dims(1000), p);
    auto out = c->decompress_f64(stream);
    ASSERT_EQ(out.size(), data.size());
  }
}

TEST(Registry, StreamsAreSelfDescribing) {
  auto f = gen::cesm_cloud_fraction(Dims(32, 48), 1);
  for (Scheme s : all_schemes()) {
    SCOPED_TRACE(scheme_name(s));
    auto c = make_compressor(s);
    CompressorParams p;
    p.bound = s == Scheme::kSzAbs ? 0.01 : 1e-2;
    auto stream = c->compress(f.span(), f.dims, p);
    // A freshly constructed compressor of the same scheme must decode it
    // with no side information.
    auto c2 = make_compressor(s);
    Dims dims;
    auto out = c2->decompress_f32(stream, &dims);
    EXPECT_EQ(dims, f.dims);
    EXPECT_EQ(out.size(), f.values.size());
  }
}

TEST(Registry, ZfpPrecisionHeuristicTracksPaperSettings) {
  // The heuristic should land in the neighbourhood of the paper's
  // hand-tuned -p values for NYX dmd: 26 @ 1e-3, 23 @ 1e-2, 19 @ 1e-1.
  CompressorParams p;
  auto near = [](std::uint32_t a, std::uint32_t b) {
    return a >= b - 2 && a <= b + 2;
  };
  p.bound = 1e-3;
  auto c = make_compressor(Scheme::kZfpP);
  auto f = gen::nyx_dark_matter_density(Dims(8, 8, 8), 2);
  auto s1 = c->compress(f.span(), f.dims, p);
  p.bound = 1e-1;
  auto s2 = c->compress(f.span(), f.dims, p);
  EXPECT_GT(s1.size(), s2.size());  // tighter bound => more planes
  (void)near;
}

}  // namespace
}  // namespace transpwr
