#include "zfp/zfp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "metrics/metrics.h"

namespace transpwr {
namespace {

template <typename T>
double max_abs_err(std::span<const T> a, std::span<const T> b) {
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) -
                                     static_cast<double>(b[i])));
  return worst;
}

TEST(ZfpAccuracy, SmoothField3D) {
  auto f = gen::hurricane_wind(Dims(12, 20, 20), 1);
  zfp::Params p;
  p.tolerance = 0.5;
  auto stream = zfp::compress<float>(f.span(), f.dims, p);
  Dims dims;
  auto out = zfp::decompress<float>(stream, &dims);
  EXPECT_EQ(dims, f.dims);
  EXPECT_LE(max_abs_err<float>(f.span(), out), p.tolerance);
  EXPECT_LT(stream.size(), f.bytes());
}

TEST(ZfpAccuracy, PartialBlocksEveryRemainder) {
  // Dimensions not divisible by 4 exercise gather/scatter padding.
  Rng rng(2);
  for (std::size_t nx : {5u, 6u, 7u, 9u, 13u}) {
    SCOPED_TRACE(nx);
    Dims dims(nx, nx + 1);
    std::vector<float> data(dims.count());
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<float>(std::sin(0.3 * static_cast<double>(i)) +
                                   0.01 * rng.normal());
    zfp::Params p;
    p.tolerance = 1e-3;
    auto stream = zfp::compress<float>(data, dims, p);
    auto out = zfp::decompress<float>(stream);
    EXPECT_LE(max_abs_err<float>(data, out), p.tolerance);
  }
}

TEST(ZfpAccuracy, AllZeroBlocksAreSkipped) {
  std::vector<float> data(64 * 64, 0.0f);
  zfp::Params p;
  p.tolerance = 1e-6;
  auto stream = zfp::compress<float>(data, Dims(64, 64), p);
  EXPECT_LT(stream.size(), 200u);  // ~1 bit per block + header
  auto out = zfp::decompress<float>(stream);
  EXPECT_EQ(out, data);
}

TEST(ZfpAccuracy, BelowToleranceBlocksCollapseToZero) {
  std::vector<float> data(4096, 1e-9f);
  zfp::Params p;
  p.tolerance = 1e-3;
  auto stream = zfp::compress<float>(data, Dims(4096), p);
  auto out = zfp::decompress<float>(stream);
  for (float v : out) EXPECT_EQ(v, 0.0f);
  EXPECT_LE(max_abs_err<float>(data, out), p.tolerance);
}

TEST(ZfpAccuracy, DoubleType) {
  Rng rng(3);
  Dims dims(16, 16, 16);
  std::vector<double> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1e6 * std::cos(0.05 * static_cast<double>(i)) + rng.normal();
  zfp::Params p;
  p.tolerance = 1e-4;
  auto stream = zfp::compress<double>(data, dims, p);
  auto out = zfp::decompress<double>(stream);
  EXPECT_LE(max_abs_err<double>(data, out), p.tolerance);
}

TEST(ZfpAccuracy, MixedMagnitudeBlocks) {
  // Blocks alternate between tiny and huge magnitudes; each block gets its
  // own exponent so the bound must hold everywhere.
  std::vector<float> data(1024);
  Rng rng(4);
  for (std::size_t i = 0; i < data.size(); ++i) {
    double scale = (i / 4) % 2 ? 1e8 : 1e-4;
    data[i] = static_cast<float>(scale * (1.0 + 0.1 * rng.normal()));
  }
  zfp::Params p;
  p.tolerance = 1e-2;
  auto stream = zfp::compress<float>(data, Dims(1024), p);
  auto out = zfp::decompress<float>(stream);
  EXPECT_LE(max_abs_err<float>(data, out), p.tolerance);
}

TEST(ZfpAccuracy, NegativeValues) {
  Rng rng(5);
  std::vector<float> data(512);
  for (auto& v : data) v = static_cast<float>(rng.normal() * 100.0);
  zfp::Params p;
  p.tolerance = 0.05;
  auto stream = zfp::compress<float>(data, Dims(512), p);
  auto out = zfp::decompress<float>(stream);
  EXPECT_LE(max_abs_err<float>(data, out), p.tolerance);
}

TEST(ZfpAccuracy, TighterToleranceCostsMoreBits) {
  auto f = gen::hurricane_cloud(Dims(8, 32, 32), 6);
  zfp::Params p;
  p.tolerance = 1e-3;
  auto loose = zfp::compress<float>(f.span(), f.dims, p);
  p.tolerance = 1e-7;
  auto tight = zfp::compress<float>(f.span(), f.dims, p);
  EXPECT_LT(loose.size(), tight.size());
}

TEST(ZfpPrecision, MorePlanesLowerError) {
  auto f = gen::nyx_velocity(Dims(16, 16, 16), 7);
  double prev_err = std::numeric_limits<double>::infinity();
  for (std::uint32_t prec : {8u, 14u, 20u, 26u}) {
    zfp::Params p;
    p.mode = zfp::Mode::kPrecision;
    p.precision = prec;
    auto stream = zfp::compress<float>(f.span(), f.dims, p);
    auto out = zfp::decompress<float>(stream);
    double err = max_abs_err<float>(f.span(), out);
    EXPECT_LE(err, prev_err * 1.001);
    prev_err = err;
  }
  // 26 planes on ~1e7-magnitude data: relative error ~1e-6 of the range.
  EXPECT_LT(prev_err, 50.0);
}

TEST(ZfpPrecision, DoesNotBoundRelativeError) {
  // The paper's ZFP_P caveat: in precision mode small values near large
  // ones lose all relative accuracy. Construct a block mixing 1e8 and 1e-4.
  std::vector<float> data(256);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = i % 7 == 0 ? 1e-4f : 1e8f;
  zfp::Params p;
  p.mode = zfp::Mode::kPrecision;
  p.precision = 16;
  auto stream = zfp::compress<float>(data, Dims(256), p);
  auto out = zfp::decompress<float>(stream);
  auto stats = compute_error_stats(std::span<const float>(data),
                                   std::span<const float>(out));
  EXPECT_GT(stats.max_rel, 0.5) << "small values should be wiped out";
}

TEST(ZfpAnalysis, TransformBlockShapes) {
  std::vector<double> block(16, 1.0);
  auto coeffs = zfp::transform_block_for_analysis(block, 2);
  ASSERT_EQ(coeffs.size(), 16u);
  // Constant block: all energy in the DC coefficient.
  EXPECT_NEAR(coeffs[0], 1.0, 0.01);
  for (std::size_t i = 1; i < coeffs.size(); ++i)
    EXPECT_NEAR(coeffs[i], 0.0, 0.01);
}

TEST(ZfpAnalysis, WrongSizeThrows) {
  std::vector<double> block(10, 1.0);
  EXPECT_THROW(zfp::transform_block_for_analysis(block, 2), ParamError);
  EXPECT_THROW(zfp::transform_block_for_analysis(block, 5), ParamError);
}

TEST(ZfpErrors, InvalidParamsAndStreams) {
  std::vector<float> data(16, 1.0f);
  zfp::Params p;
  p.tolerance = 0.0;
  EXPECT_THROW(zfp::compress<float>(data, Dims(16), p), ParamError);
  p.tolerance = 1e-3;
  p.mode = zfp::Mode::kPrecision;
  p.precision = 0;
  EXPECT_THROW(zfp::compress<float>(data, Dims(16), p), ParamError);

  zfp::Params ok;
  auto stream = zfp::compress<float>(data, Dims(16), ok);
  auto bad = stream;
  bad[0] ^= 0xff;
  EXPECT_THROW(zfp::decompress<float>(bad), StreamError);
  EXPECT_THROW(zfp::decompress<double>(stream), StreamError);
}

// Property sweep: the fixed-accuracy guarantee across tolerances,
// dimensionalities, and data shapes — the load-bearing invariant for ZFP_T.
class ZfpToleranceSweep
    : public ::testing::TestWithParam<std::tuple<double, int, int>> {};

TEST_P(ZfpToleranceSweep, AccuracyBoundAlwaysRespected) {
  auto [rel_tol, nd, shape] = GetParam();
  Rng rng(static_cast<std::uint64_t>(nd * 100 + shape));
  Dims dims = nd == 1 ? Dims(777) : nd == 2 ? Dims(21, 35) : Dims(9, 10, 11);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    double x = static_cast<double>(i);
    switch (shape) {
      case 0:  // smooth
        data[i] = static_cast<float>(std::sin(0.1 * x) * 40.0);
        break;
      case 1:  // noisy
        data[i] = static_cast<float>(rng.normal() * 1e5);
        break;
      default:  // wide dynamic range
        data[i] = static_cast<float>(
            std::pow(10.0, rng.uniform(-6.0, 6.0)) *
            (rng.uniform() < 0.5 ? -1 : 1));
        break;
    }
  }
  // The tolerance is scaled to the data's magnitude: float block-floating-
  // point can honor tolerances down to ~2^-21 of the per-block max, not
  // absolute tolerances finer than the data's own ulp.
  double scale = 0;
  for (float v : data) scale = std::max(scale, std::abs(
      static_cast<double>(v)));
  double tol = rel_tol * scale;
  zfp::Params p;
  p.tolerance = tol;
  auto stream = zfp::compress<float>(data, dims, p);
  auto out = zfp::decompress<float>(stream);
  EXPECT_LE(max_abs_err<float>(data, out), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZfpToleranceSweep,
    ::testing::Combine(::testing::Values(1e-6, 1e-3, 1e-1, 10.0),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace transpwr
