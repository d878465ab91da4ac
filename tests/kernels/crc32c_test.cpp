// CRC32C contracts: the published check values, generic/native identity at
// every length and alignment the lane folding can meet, seed chaining, and
// single-bit-flip detection — each under both dispatches.
#include "kernels/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "kernels/dispatch.h"

namespace transpwr {
namespace kernels {
namespace {

// The native path folds three 4 KiB lanes; lengths past three of them plus
// a tail cover every block/short-block/tail split.
constexpr std::size_t kLongLane = 4096;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

class Crc32c : public ::testing::TestWithParam<Dispatch> {
 protected:
  ScopedDispatch scoped_{GetParam()};
};

TEST_P(Crc32c, Rfc3720Vectors) {
  std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xff), ramp(32);
  std::iota(ramp.begin(), ramp.end(), std::uint8_t{0});
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(crc32c(ramp), 0x46DD794Eu);
}

TEST_P(Crc32c, CheckValue) {
  const char* text = "123456789";
  EXPECT_EQ(crc32c({reinterpret_cast<const std::uint8_t*>(text), 9}),
            0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

TEST_P(Crc32c, ChainedSeedEqualsWholeBuffer) {
  const auto buf = random_bytes(3 * kLongLane + 1000, 11);
  const std::uint32_t whole = crc32c(buf);
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{255}, kLongLane, 3 * kLongLane + 3,
                          buf.size()}) {
    const std::span<const std::uint8_t> s(buf);
    EXPECT_EQ(crc32c(s.subspan(cut), crc32c(s.first(cut))), whole)
        << "cut at " << cut;
  }
}

TEST_P(Crc32c, EverySingleBitFlipDetected) {
  const auto buf = random_bytes(40, 5);
  const std::uint32_t good = crc32c(buf);
  for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
    auto bad = buf;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32c(bad), good) << "bit " << bit;
  }
}

INSTANTIATE_TEST_SUITE_P(BothDispatches, Crc32c,
                         ::testing::Values(Dispatch::kGeneric,
                                           Dispatch::kNative),
                         [](const auto& info) {
                           return std::string(name(info.param));
                         });

TEST(Crc32cIdentity, GenericEqualsNativeAtEveryLengthAndOffset) {
  const std::size_t max_len = 3 * kLongLane + 64;
  const auto buf = random_bytes(max_len + 8, 3);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::span<const std::uint8_t> base =
        std::span<const std::uint8_t>(buf).subspan(offset);
    for (std::size_t len = 0; len <= max_len; ++len) {
      const auto s = base.first(len);
      std::uint32_t generic, native;
      {
        ScopedDispatch d(Dispatch::kGeneric);
        generic = crc32c(s);
      }
      {
        ScopedDispatch d(Dispatch::kNative);
        native = crc32c(s);
      }
      ASSERT_EQ(generic, native) << "offset " << offset << " len " << len;
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace transpwr
