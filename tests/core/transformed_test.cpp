#include "core/transformed.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/bitmap.h"
#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "lossless/lossless.h"
#include "lossless/rle.h"
#include "metrics/metrics.h"
#include "obs/obs.h"

namespace transpwr {
namespace {

constexpr double kE = 2.718281828459045;

void expect_strictly_bounded(std::span<const float> orig,
                             std::span<const float> dec, double br) {
  auto stats = compute_error_stats(orig, dec);
  EXPECT_LE(stats.max_rel, br) << "pointwise relative bound violated";
  EXPECT_EQ(stats.modified_zeros, 0u) << "zeros must be restored exactly";
  EXPECT_EQ(stats.unbounded_at(br), 0u);
}

TEST(Transformed, SzInnerOnDensityField) {
  auto f = gen::nyx_dark_matter_density(Dims(20, 20, 20), 1);
  TransformedParams p;
  p.rel_bound = 1e-2;
  auto stream = transformed_compress<float>(f.span(), f.dims,
                                            InnerCodec::kSz, p);
  Dims dims;
  auto out = transformed_decompress<float>(stream, &dims);
  EXPECT_EQ(dims, f.dims);
  expect_strictly_bounded(f.span(), out, p.rel_bound);
  EXPECT_LT(stream.size(), f.bytes());
}

TEST(Transformed, ZfpInnerOnDensityField) {
  auto f = gen::nyx_dark_matter_density(Dims(20, 20, 20), 1);
  TransformedParams p;
  p.rel_bound = 1e-2;
  auto stream = transformed_compress<float>(f.span(), f.dims,
                                            InnerCodec::kZfp, p);
  auto out = transformed_decompress<float>(stream);
  expect_strictly_bounded(f.span(), out, p.rel_bound);
}

TEST(Transformed, SignedVelocityField) {
  auto f = gen::nyx_velocity(Dims(16, 16, 16), 2);
  for (auto codec : {InnerCodec::kSz, InnerCodec::kZfp}) {
    SCOPED_TRACE(static_cast<int>(codec));
    TransformedParams p;
    p.rel_bound = 1e-3;
    auto stream = transformed_compress<float>(f.span(), f.dims, codec, p);
    auto out = transformed_decompress<float>(stream);
    expect_strictly_bounded(f.span(), out, p.rel_bound);
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(std::signbit(out[i]), std::signbit(f.values[i]));
  }
}

TEST(Transformed, FieldWithManyZeros) {
  auto f = gen::hurricane_cloud(Dims(8, 32, 32), 3);
  TransformedParams p;
  p.rel_bound = 1e-2;
  auto stream = transformed_compress<float>(f.span(), f.dims,
                                            InnerCodec::kSz, p);
  auto out = transformed_decompress<float>(stream);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (f.values[i] == 0.0f) {
      ASSERT_EQ(out[i], 0.0f) << i;
      ++zeros;
    }
  EXPECT_GT(zeros, 0u);
  expect_strictly_bounded(f.span(), out, p.rel_bound);
}

TEST(Transformed, AllZeroField) {
  std::vector<float> data(4096, 0.0f);
  TransformedParams p;
  p.rel_bound = 1e-3;
  auto stream = transformed_compress<float>(data, Dims(4096),
                                            InnerCodec::kSz, p);
  auto out = transformed_decompress<float>(stream);
  EXPECT_EQ(out, data);
}

TEST(Transformed, AllNegativeField) {
  Rng rng(4);
  std::vector<float> data(2000);
  for (auto& v : data)
    v = -static_cast<float>(std::pow(10.0, rng.uniform(-3, 3)));
  TransformedParams p;
  p.rel_bound = 1e-3;
  auto stream = transformed_compress<float>(data, Dims(2000),
                                            InnerCodec::kSz, p);
  auto out = transformed_decompress<float>(stream);
  expect_strictly_bounded(data, out, p.rel_bound);
  for (float v : out) ASSERT_LE(v, 0.0f);
}

TEST(Transformed, WideDynamicRangeIsWhereItShines) {
  // 60 orders of magnitude — the regime where abs-bounded compression is
  // useless but the log transform handles uniformly.
  Rng rng(5);
  std::vector<float> data(8192);
  for (auto& v : data)
    v = static_cast<float>(std::pow(10.0, rng.uniform(-30, 30)));
  TransformedParams p;
  p.rel_bound = 1e-2;
  auto stream = transformed_compress<float>(data, Dims(8192),
                                            InnerCodec::kSz, p);
  auto out = transformed_decompress<float>(stream);
  expect_strictly_bounded(data, out, p.rel_bound);
}

// The stage breakdown lives in the obs registry; these are the span paths
// the benches read (by suffix, since a caller's spans may enclose them).
TEST(Transformed, StageSpansRecorded) {
  auto f = gen::nyx_dark_matter_density(Dims(16, 16, 16), 6);
  TransformedParams p;
  p.rel_bound = 1e-2;
  obs::ScopedRecording rec;
  obs::reset();
  auto stream = transformed_compress<float>(f.span(), f.dims,
                                            InnerCodec::kSz, p);
  auto out = transformed_decompress<float>(stream);
  EXPECT_EQ(out.size(), f.values.size());
  const auto snap = obs::snapshot();
  auto recorded = [&](const std::string& suffix) {
    for (const auto& [path, stat] : snap.spans)
      if (path.size() >= suffix.size() &&
          path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
              0)
        return stat.count > 0 && stat.seconds > 0;
    return false;
  };
  for (const char* path :
       {"transformed.compress/pre", "transformed.decompress/post",
        "sz.compress/predict", "sz.compress/entropy_encode",
        "sz.decompress/entropy_decode", "sz.decompress/reconstruct"})
    EXPECT_TRUE(recorded(path)) << path;
}

TEST(Transformed, DoubleType) {
  Rng rng(7);
  std::vector<double> data(4000);
  for (auto& v : data)
    v = std::pow(10.0, rng.uniform(-100, 100)) *
        (rng.uniform() < 0.5 ? -1 : 1);
  TransformedParams p;
  p.rel_bound = 1e-6;
  auto stream = transformed_compress<double>(data, Dims(4000),
                                             InnerCodec::kSz, p);
  auto out = transformed_decompress<double>(stream);
  auto stats = compute_error_stats(std::span<const double>(data),
                                   std::span<const double>(out));
  EXPECT_LE(stats.max_rel, p.rel_bound);
}

TEST(Transformed, CorruptStreamThrows) {
  std::vector<float> data(100, 1.0f);
  TransformedParams p;
  auto stream = transformed_compress<float>(data, Dims(100),
                                            InnerCodec::kSz, p);
  auto bad = stream;
  bad[0] ^= 0xff;
  EXPECT_THROW(transformed_decompress<float>(bad), StreamError);
  EXPECT_THROW(transformed_decompress<double>(stream), StreamError);
}

TEST(Transformed, SignSectionLongerThanPayloadIsAStreamError) {
  // Rebuild a TRT1 stream with one extra bit in its sign section: the
  // decoder must report corruption (StreamError), not a caller error.
  auto f = gen::nyx_velocity(Dims(8, 6, 5), 3);  // signed: has a sign section
  auto stream = transformed_compress<float>(f.span(), f.dims, InnerCodec::kSz,
                                            TransformedParams{});
  ByteReader in(stream);
  ByteWriter out;
  out.put(in.get<std::uint32_t>());  // magic
  out.put(in.get<std::uint8_t>());   // dtype
  out.put(in.get<std::uint8_t>());   // inner codec
  ASSERT_EQ(in.get<std::uint8_t>(), 1u) << "expected a sign section";
  out.put(std::uint8_t{1});
  out.put(in.get<std::uint8_t>());  // log kernel
  out.put(in.get<double>());        // base
  out.put(in.get<double>());        // zero threshold
  auto raw = lossless::decompress(in.get_sized());
  BitReader br(raw);
  const Bitmap signs = rle::decode_bits(br);
  ASSERT_EQ(signs.size(), f.dims.count());
  Bitmap longer(signs.size() + 1);
  for (std::size_t i = 0; i < signs.size(); ++i)
    if (signs[i]) longer.set(i);
  BitWriter bw;
  rle::encode_bits(longer, bw);
  out.put_sized(lossless::compress(bw.take()));
  out.put_sized(in.get_sized());  // inner payload, unchanged
  EXPECT_THROW(transformed_decompress<float>(out.take()), StreamError);
}

// The paper's headline property, swept across bounds x bases x codecs on a
// mix of realistic fields: 100% of points strictly bounded, zeros exact.
class StrictBoundSweep
    : public ::testing::TestWithParam<std::tuple<double, double, InnerCodec>> {
};

TEST_P(StrictBoundSweep, HundredPercentBounded) {
  auto [br, base, codec] = GetParam();
  auto dmd = gen::nyx_dark_matter_density(Dims(14, 14, 14), 11);
  auto vel = gen::hacc_velocity(3000, 12);
  auto cloud = gen::cesm_cloud_fraction(Dims(40, 50), 13);
  for (const Field<float>* f : {&dmd, &vel, &cloud}) {
    SCOPED_TRACE(f->name);
    TransformedParams p;
    p.rel_bound = br;
    p.log_base = base;
    auto stream = transformed_compress<float>(f->span(), f->dims, codec, p);
    auto out = transformed_decompress<float>(stream);
    expect_strictly_bounded(f->span(), out, br);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrictBoundSweep,
    ::testing::Combine(::testing::Values(1e-4, 1e-3, 1e-2, 1e-1, 0.3),
                       ::testing::Values(2.0, kE, 10.0),
                       ::testing::Values(InnerCodec::kSz, InnerCodec::kZfp,
                                         InnerCodec::kSzInterp)));

}  // namespace
}  // namespace transpwr
