// Compressed bytes must be a pure function of the input — never of the
// worker count. Block sizes are derived from element counts and histograms
// are merged with exact integer sums, so any thread count must emit
// identical streams.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/transformed.h"
#include "lossless/lossless.h"
#include "sz/interp.h"
#include "sz/sz.h"

namespace transpwr {
namespace {

template <typename T>
std::vector<T> smooth_field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> data(n);
  double v = 1.0;
  for (auto& x : data) {
    v += rng.normal() * 0.01;
    x = static_cast<T>(v);
  }
  return data;
}

TEST(ThreadDeterminism, SzCompressBytesMatch) {
  Dims dims(64, 48);
  auto data = smooth_field<float>(dims.count(), 7);
  sz::Params p;
  p.bound = 1e-3;
  p.threads = 1;
  auto one = sz::compress<float>(data, dims, p);
  for (std::size_t threads : {2u, 8u}) {
    p.threads = threads;
    EXPECT_EQ(sz::compress<float>(data, dims, p), one)
        << "threads=" << threads;
  }
}

TEST(ThreadDeterminism, InterpCompressBytesMatch) {
  Dims dims(31, 33);
  auto data = smooth_field<float>(dims.count(), 11);
  sz_interp::Params p;
  p.bound = 1e-3;
  p.threads = 1;
  auto one = sz_interp::compress<float>(data, dims, p);
  p.threads = 8;
  EXPECT_EQ(sz_interp::compress<float>(data, dims, p), one);
}

TEST(ThreadDeterminism, LosslessBlockedBytesMatch) {
  // Large enough to cross the blocked (method 2) threshold.
  Rng rng(13);
  std::vector<std::uint8_t> raw(200000);
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.below(6) * 31);
  auto one = lossless::compress(raw, 1);
  EXPECT_EQ(one[0], 2u) << "corpus should land in the blocked container";
  for (std::size_t threads : {2u, 8u})
    EXPECT_EQ(lossless::compress(raw, threads), one) << "threads=" << threads;
}

TEST(ThreadDeterminism, TransformedSzBytesMatchAndRoundTrip) {
  Dims dims(40, 25);
  auto data = smooth_field<float>(dims.count(), 17);
  TransformedParams tp;
  tp.rel_bound = 1e-3;
  tp.threads = 1;
  auto one = transformed_compress<float>(data, dims, InnerCodec::kSz, tp);
  tp.threads = 8;
  auto eight = transformed_compress<float>(data, dims, InnerCodec::kSz, tp);
  EXPECT_EQ(eight, one);
  // And the parallel decoder agrees with the serial one.
  EXPECT_EQ(transformed_decompress<float>(one, nullptr, 8),
            transformed_decompress<float>(one, nullptr, 1));
}

}  // namespace
}  // namespace transpwr
