// Property tests for the lossless substrate: every coder must round-trip
// the degenerate populations exactly — empty input, a single symbol,
// all-identical runs, and incompressible noise — since the codecs above
// them assume byte-exact recovery of side channels (outliers, controls,
// regression coefficients).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/bitstream.h"
#include "common/rng.h"
#include "lossless/huffman.h"
#include "lossless/lossless.h"
#include "lossless/lz77.h"
#include "lossless/rle.h"

namespace transpwr {
namespace {

std::vector<std::uint8_t> noise_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

// The degenerate byte populations every coder must survive.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
byte_populations() {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> pops;
  pops.emplace_back("empty", std::vector<std::uint8_t>{});
  pops.emplace_back("single", std::vector<std::uint8_t>{42});
  pops.emplace_back("all_identical", std::vector<std::uint8_t>(4096, 7));
  pops.emplace_back("two_runs", [] {
    std::vector<std::uint8_t> v(1000, 0);
    std::fill(v.begin() + 500, v.end(), 255);
    return v;
  }());
  pops.emplace_back("incompressible", noise_bytes(4096, 31337));
  pops.emplace_back("short_noise", noise_bytes(3, 5));
  return pops;
}

TEST(LosslessRoundTrip, ContainerHandlesAllPopulations) {
  for (const auto& [name, input] : byte_populations()) {
    SCOPED_TRACE(name);
    auto stream = lossless::compress(input);
    EXPECT_EQ(lossless::decompress(stream), input);
    // Incompressible inputs must not blow up: the raw fallback caps the
    // stream at input size plus the 1-byte method tag and size field.
    EXPECT_LE(stream.size(), input.size() + 16);
  }
}

TEST(LosslessRoundTrip, Lz77HandlesAllPopulations) {
  for (const auto& [name, input] : byte_populations()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(lz77::decompress(lz77::compress(input)), input);
  }
}

TEST(LosslessRoundTrip, HuffmanHandlesDegenerateAlphabets) {
  // Single-symbol alphabet: zero-entropy input still needs a valid code.
  for (std::uint32_t alphabet : {1u, 2u, 300u}) {
    SCOPED_TRACE(alphabet);
    std::vector<std::uint32_t> symbols(500, alphabet - 1);
    HuffmanCoder enc;
    enc.build_from(symbols, alphabet);
    BitWriter bw;
    enc.write_table(bw);
    for (auto s : symbols) enc.encode(s, bw);
    auto bytes = bw.take();
    BitReader br(bytes);
    HuffmanCoder dec;
    dec.read_table(br);
    for (auto s : symbols) ASSERT_EQ(dec.decode(br), s);
  }
}

TEST(LosslessRoundTrip, HuffmanHandlesUniformNoise) {
  Rng rng(77);
  const std::uint32_t alphabet = 4096;
  std::vector<std::uint32_t> symbols(20000);
  for (auto& s : symbols)
    s = static_cast<std::uint32_t>(rng.below(alphabet));
  HuffmanCoder enc;
  enc.build_from(symbols, alphabet);
  BitWriter bw;
  enc.write_table(bw);
  for (auto s : symbols) enc.encode(s, bw);
  auto bytes = bw.take();
  BitReader br(bytes);
  HuffmanCoder dec;
  dec.read_table(br);
  for (std::size_t i = 0; i < symbols.size(); ++i)
    ASSERT_EQ(dec.decode(br), symbols[i]) << i;
}

TEST(LosslessRoundTrip, RleHandlesDegenerateBitmaps) {
  auto roundtrip = [](const Bitmap& bits) {
    BitWriter bw;
    rle::encode_bits(bits, bw);
    auto bytes = bw.take();
    BitReader br(bytes);
    Bitmap back = rle::decode_bits(br);
    ASSERT_EQ(back.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
      ASSERT_EQ(back[i], bits[i]) << i;
  };

  Bitmap empty;
  roundtrip(empty);

  Bitmap one;
  one.assign(1, false);
  roundtrip(one);
  one.set(0);
  roundtrip(one);

  Bitmap all_same;
  all_same.assign(10000, false);
  roundtrip(all_same);
  for (std::size_t i = 0; i < all_same.size(); ++i) all_same.set(i);
  roundtrip(all_same);

  Bitmap alternating;
  alternating.assign(777, false);
  for (std::size_t i = 0; i < alternating.size(); i += 2) alternating.set(i);
  roundtrip(alternating);

  Bitmap noise;
  noise.assign(5000, false);
  Rng rng(13);
  for (std::size_t i = 0; i < noise.size(); ++i)
    if (rng.uniform() < 0.5) noise.set(i);
  roundtrip(noise);
}

}  // namespace
}  // namespace transpwr
