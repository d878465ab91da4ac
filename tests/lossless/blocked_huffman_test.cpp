#include "lossless/blocked_huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace transpwr {
namespace lossless {
namespace {

std::vector<std::uint32_t> gaussian_codes(std::size_t n, std::uint64_t seed,
                                          std::uint32_t alphabet) {
  Rng rng(seed);
  std::vector<std::uint32_t> syms(n);
  const double center = alphabet / 2.0;
  for (auto& s : syms) {
    double g = rng.normal() * alphabet / 100.0 + center;
    s = static_cast<std::uint32_t>(
        std::clamp(g, 0.0, static_cast<double>(alphabet - 1)));
  }
  return syms;
}

TEST(BlockedHuffman, EmptyRoundTrip) {
  auto stream = blocked_encode({}, 16);
  EXPECT_TRUE(blocked_decode(stream).empty());
}

TEST(BlockedHuffman, SingleSymbolRoundTrip) {
  std::vector<std::uint32_t> syms = {7};
  auto stream = blocked_encode(syms, 16);
  EXPECT_EQ(blocked_decode(stream), syms);
}

TEST(BlockedHuffman, SubBlockRoundTrip) {
  auto syms = gaussian_codes(5000, 11, 256);
  auto stream = blocked_encode(syms, 256);
  EXPECT_EQ(blocked_decode(stream), syms);
}

TEST(BlockedHuffman, MultiBlockRoundTrip) {
  // Several times kEntropyBlockSymbols so the directory has real fan-out.
  const std::size_t n = 3 * kEntropyBlockSymbols + 123;
  auto syms = gaussian_codes(n, 13, 65536);
  auto stream = blocked_encode(syms, 65536);
  EXPECT_EQ(blocked_decode(stream), syms);
  EXPECT_EQ(blocked_decode(stream, 8), syms);
}

TEST(BlockedHuffman, ExactBlockBoundaryRoundTrip) {
  for (std::size_t n : {kEntropyBlockSymbols - 1, kEntropyBlockSymbols,
                        kEntropyBlockSymbols + 1,
                        2 * kEntropyBlockSymbols}) {
    auto syms = gaussian_codes(n, 17 + n, 512);
    auto stream = blocked_encode(syms, 512);
    EXPECT_EQ(blocked_decode(stream), syms) << "n=" << n;
  }
}

TEST(BlockedHuffman, BytesIdenticalForAnyThreadCount) {
  const std::size_t n = 2 * kEntropyBlockSymbols + 77;
  auto syms = gaussian_codes(n, 19, 4096);
  auto one = blocked_encode(syms, 4096, 1);
  for (std::size_t threads : {2u, 3u, 8u})
    EXPECT_EQ(blocked_encode(syms, 4096, threads), one)
        << "threads=" << threads;
}

TEST(BlockedHuffman, OutOfRangeSymbolThrows) {
  std::vector<std::uint32_t> syms(100, 3);
  syms[50] = 16;
  EXPECT_THROW(blocked_encode(syms, 16), ParamError);
}

TEST(BlockedHuffman, TruncatedStreamThrows) {
  auto syms = gaussian_codes(4000, 23, 128);
  auto stream = blocked_encode(syms, 128);
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{12},
                           stream.size() / 2, stream.size() - 1}) {
    std::vector<std::uint8_t> cut(stream.begin(),
                                  stream.begin() +
                                      static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(blocked_decode(cut), StreamError) << "keep=" << keep;
  }
}

TEST(BlockedHuffman, CorruptDirectoryThrows) {
  auto syms = gaussian_codes(4000, 29, 128);
  auto stream = blocked_encode(syms, 128);
  // Locate the u32 block-count field (offset 4+8+4+4) and the directory
  // after the sized table; plant absurd values.
  auto corrupt_at = [&](std::size_t off, std::uint64_t value, unsigned width) {
    auto bad = stream;
    ASSERT_LE(off + width, bad.size());
    std::memcpy(bad.data() + off, &value, width);
    EXPECT_THROW(blocked_decode(bad), StreamError) << "off=" << off;
  };
  corrupt_at(4, ~std::uint64_t{0}, 8);   // symbol count
  corrupt_at(16, 0, 4);                  // block size = 0
  corrupt_at(20, 0xffffffffu, 4);        // block count mismatch
}

}  // namespace
}  // namespace lossless
}  // namespace transpwr
