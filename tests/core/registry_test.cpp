#include "core/compressor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "data/generators.h"
#include "kernels/dispatch.h"
#include "metrics/metrics.h"
#include "obs/obs.h"
#include "testing/generators.h"

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

/// One field shape of the reconstruction contract sweep.
template <typename T>
struct ShapedField {
  std::string name;
  std::vector<T> values;
  Dims dims;
};

template <typename T>
std::vector<ShapedField<T>> reconstruction_fields() {
  std::vector<ShapedField<T>> out;
  ShapedField<T> smooth{"smooth3d", {}, Dims(12, 10, 9)};
  smooth.values.resize(smooth.dims.count());
  for (std::size_t i = 0; i < smooth.values.size(); ++i)
    smooth.values[i] = static_cast<T>(
        50.0 + 10.0 * std::sin(0.05 * static_cast<double>(i)) +
        3.0 * std::cos(0.31 * static_cast<double>(i % 9)));
  out.push_back(std::move(smooth));

  ShapedField<T> signs{"signs1d", {}, Dims(1000)};
  signs.values.resize(1000);
  for (std::size_t i = 0; i < signs.values.size(); ++i) {
    const double v = 2.0 + std::sin(0.02 * static_cast<double>(i));
    signs.values[i] = static_cast<T>(i % 5 == 0 ? -v : v);
  }
  out.push_back(std::move(signs));

  using transpwr::testing::Family;
  for (Family f : {Family::kSparseZeros, Family::kSignedZeros,
                   Family::kDenormals, Family::kTinyValuesMix}) {
    ShapedField<T> fam{transpwr::testing::family_name(f), {}, Dims(16, 24)};
    fam.values = transpwr::testing::make_field<T>(f, fam.dims.count(), 17);
    out.push_back(std::move(fam));
  }
  return out;
}

template <typename T>
std::vector<T> decompress_as(Compressor& c,
                             std::span<const std::uint8_t> stream) {
  if constexpr (std::is_same_v<T, float>)
    return c.decompress_f32(stream);
  else
    return c.decompress_f64(stream);
}

template <typename T>
void check_reconstruction_equals_decode() {
  for (const ShapedField<T>& f : reconstruction_fields<T>()) {
    for (Scheme s : all_schemes()) {
      SCOPED_TRACE(f.name + " " + scheme_name(s));
      Compressor c(s);
      CompressorParams p;
      p.bound = 1e-2;
      std::vector<T> rec;
      const auto stream =
          c.compress(std::span<const T>(f.values), f.dims, p, &rec);
      const auto plain = c.compress(std::span<const T>(f.values), f.dims, p);
      EXPECT_EQ(stream, plain) << "asking for the reconstruction changed "
                                  "the stream";
      const std::vector<T> decoded = decompress_as<T>(c, stream);
      ASSERT_EQ(rec.size(), decoded.size());
      EXPECT_EQ(0, std::memcmp(rec.data(), decoded.data(),
                               rec.size() * sizeof(T)));
    }
  }
}

TEST(Registry, ReconstructionEqualsDecode) {
  // The encoder's reconstruction stands in for a decode (archive summaries
  // are built from it), so it must be the decoded output bit for bit under
  // both kernel dispatches.
  for (kernels::Dispatch d :
       {kernels::Dispatch::kGeneric, kernels::Dispatch::kNative}) {
    SCOPED_TRACE(kernels::name(d));
    kernels::ScopedDispatch scoped(d);
    check_reconstruction_equals_decode<float>();
    check_reconstruction_equals_decode<double>();
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
  // The ZFP_P stream stores the precision it ran at as a u32 at header
  // offset 40: magic(4) dtype(1) nd(1) mode(1) reserved(1) dims(3 x u64)
  // tolerance(f64).
  auto near = [](std::uint32_t a, std::uint32_t b) {
    return a >= b - 2 && a <= b + 2;
  };
  auto c = make_compressor(Scheme::kZfpP);
  auto f = gen::nyx_dark_matter_density(Dims(8, 8, 8), 2);
  std::vector<std::size_t> sizes;
  for (auto [bound, paper] : {std::pair{1e-3, 26u}, std::pair{1e-2, 23u},
                              std::pair{1e-1, 19u}}) {
    SCOPED_TRACE(bound);
    CompressorParams p;
    p.bound = bound;
    auto stream = c->compress(f.span(), f.dims, p);
    ASSERT_GE(stream.size(), 44u);
    std::uint32_t precision = 0;
    std::memcpy(&precision, stream.data() + 40, sizeof(precision));
    EXPECT_TRUE(near(precision, paper))
        << "precision " << precision << " vs paper " << paper;
    sizes.push_back(stream.size());
  }
  EXPECT_GT(sizes.front(), sizes.back());  // tighter bound => more planes
}

}  // namespace
}  // namespace transpwr
