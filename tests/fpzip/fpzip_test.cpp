#include "fpzip/fpzip.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "metrics/metrics.h"

namespace transpwr {
namespace {

TEST(Fpzip, FullPrecisionIsLossless) {
  Rng rng(1);
  std::vector<float> data(10000);
  for (auto& v : data) v = static_cast<float>(rng.normal() * 1e6);
  fpzip::Params p;
  p.precision = 32;
  auto stream = fpzip::compress<float>(data, Dims(data.size()), p);
  auto out = fpzip::decompress<float>(stream);
  EXPECT_EQ(out, data);
}

TEST(Fpzip, FullPrecisionDoubleIsLossless) {
  Rng rng(2);
  std::vector<double> data(3000);
  for (auto& v : data) v = rng.normal() * 1e12;
  fpzip::Params p;
  p.precision = 64;
  auto stream = fpzip::compress<double>(data, Dims(data.size()), p);
  auto out = fpzip::decompress<double>(stream);
  EXPECT_EQ(out, data);
}

TEST(Fpzip, GuaranteedRelBoundHolds) {
  auto f = gen::nyx_dark_matter_density(Dims(20, 20, 20), 3);
  for (std::uint32_t prec : {13u, 16u, 19u, 24u}) {
    SCOPED_TRACE(prec);
    fpzip::Params p;
    p.precision = prec;
    auto stream = fpzip::compress<float>(f.span(), f.dims, p);
    auto out = fpzip::decompress<float>(stream);
    auto stats = compute_error_stats(f.span(), std::span<const float>(out));
    EXPECT_LE(stats.max_rel, fpzip::max_rel_error_for_precision<float>(prec));
    EXPECT_EQ(stats.modified_zeros, 0u) << "fpzip must keep zeros exact";
  }
}

TEST(Fpzip, SignedDataRoundTrips) {
  auto f = gen::nyx_velocity(Dims(16, 16, 16), 4);
  fpzip::Params p;
  p.precision = 19;
  auto stream = fpzip::compress<float>(f.span(), f.dims, p);
  auto out = fpzip::decompress<float>(stream);
  auto stats = compute_error_stats(f.span(), std::span<const float>(out));
  EXPECT_LE(stats.max_rel, 1e-3);
  // Signs must never flip under mantissa truncation.
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(std::signbit(out[i]), std::signbit(f.values[i]));
}

TEST(Fpzip, DecompressionEqualsTruncationExactly) {
  // fpzip is truncate-then-lossless: the decompressed stream must be the
  // bitwise truncation of the input, not merely near it.
  Rng rng(5);
  std::vector<float> data(2000);
  for (auto& v : data) v = static_cast<float>(rng.normal() * 123.456);
  fpzip::Params p;
  p.precision = 16;  // keep 7 mantissa bits
  auto stream = fpzip::compress<float>(data, Dims(data.size()), p);
  auto out = fpzip::decompress<float>(stream);
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, &data[i], 4);
    bits &= ~((std::uint32_t{1} << (23 - 7)) - 1);
    float expected;
    std::memcpy(&expected, &bits, 4);
    ASSERT_EQ(out[i], expected) << i;
  }
}

TEST(Fpzip, PrecisionForRelBoundInverse) {
  for (double br : {1e-1, 1e-2, 1e-3, 1e-4, 1e-6}) {
    auto p = fpzip::precision_for_rel_bound<float>(br);
    EXPECT_LE(fpzip::max_rel_error_for_precision<float>(p), br);
    if (p > 9) {  // one fewer bit must NOT suffice (minimality)
      EXPECT_GT(fpzip::max_rel_error_for_precision<float>(p - 1), br);
    }
  }
}

TEST(Fpzip, PaperPrecisionMapping) {
  // The paper's Table IV pairs: -p 19 for 1e-3, -p 16 for 1e-2, -p 13 for
  // 1e-1 (float), with max errors 9.8e-4, 7.8e-3, 5.9e-2.
  EXPECT_EQ(fpzip::precision_for_rel_bound<float>(1e-3), 19u);
  EXPECT_EQ(fpzip::precision_for_rel_bound<float>(1e-2), 16u);
  EXPECT_EQ(fpzip::precision_for_rel_bound<float>(1e-1), 13u);
}

TEST(Fpzip, CompressionRatioStepsWithPrecision) {
  auto f = gen::cesm_cloud_fraction(Dims(128, 128), 6);
  std::size_t prev = 0;
  for (std::uint32_t prec : {12u, 16u, 20u, 24u, 28u}) {
    fpzip::Params p;
    p.precision = prec;
    auto stream = fpzip::compress<float>(f.span(), f.dims, p);
    EXPECT_GT(stream.size(), prev);
    prev = stream.size();
  }
}

TEST(Fpzip, Dims2D3DWork) {
  Rng rng(7);
  for (Dims dims : {Dims(40, 25), Dims(7, 9, 11)}) {
    SCOPED_TRACE(dims.to_string());
    std::vector<float> data(dims.count());
    double v = 5;
    for (auto& x : data) {
      v += 0.01 * rng.normal();
      x = static_cast<float>(v);
    }
    fpzip::Params p;
    p.precision = 20;
    auto stream = fpzip::compress<float>(data, dims, p);
    auto out = fpzip::decompress<float>(stream);
    ASSERT_EQ(out.size(), data.size());
    auto stats = compute_error_stats(std::span<const float>(data),
                                     std::span<const float>(out));
    EXPECT_LE(stats.max_rel, std::ldexp(1.0, -(20 - 9)));
  }
}

TEST(Fpzip, ZerosAndDenormalNeighborhood) {
  std::vector<float> data = {0.0f, -0.0f, 1e-38f, -1e-38f, 1.0f, -1.0f,
                             0.0f, 3e38f};
  fpzip::Params p;
  p.precision = 20;
  auto stream = fpzip::compress<float>(data, Dims(data.size()), p);
  auto out = fpzip::decompress<float>(stream);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[4 + 2], 0.0f);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(std::signbit(out[i]), std::signbit(data[i]));
}

TEST(Fpzip, InvalidParamsThrow) {
  std::vector<float> data(4, 1.0f);
  fpzip::Params p;
  p.precision = 5;  // below header bits
  EXPECT_THROW(fpzip::compress<float>(data, Dims(4), p), ParamError);
  p.precision = 40;  // above total bits for float
  EXPECT_THROW(fpzip::compress<float>(data, Dims(4), p), ParamError);
  EXPECT_THROW(fpzip::precision_for_rel_bound<float>(0.0), ParamError);
}

TEST(Fpzip, CorruptStreamThrows) {
  std::vector<float> data(50, 2.0f);
  fpzip::Params p;
  auto stream = fpzip::compress<float>(data, Dims(50), p);
  auto bad = stream;
  bad[0] ^= 0xff;
  EXPECT_THROW(fpzip::decompress<float>(bad), StreamError);
  EXPECT_THROW(fpzip::decompress<double>(stream), StreamError);
}

}  // namespace
}  // namespace transpwr
