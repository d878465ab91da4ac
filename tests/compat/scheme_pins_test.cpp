// Byte pins for every stream a Scheme writes, plus the header refusals of
// the codec modes no Scheme reaches.
//
// (a) The FNV-1a of `make_compressor(s)->compress(...)` for all eight
//     schemes, f32 and f64, on one fixed 3-D and one fixed 1-D field at
//     bound 1e-2. The values were recorded at commit 5849b3b, before any
//     source edit of the change that deleted ZFP fixed-rate mode, FPZIP's
//     range-coder stage and ISABELA's linear fit, so they prove that
//     deletion left every Scheme-reachable stream byte-identical. A mismatch prints the new
//     digest; only an intentional format change may update a pin.
// (b) A valid stream with one header byte patched to a deleted mode must
//     be refused with StreamError: ZFP mode byte 2 (fixed rate), FPZIP
//     entropy byte 1 (range coder), ISABELA fit byte 0 (linear).
#include <gtest/gtest.h>

#include <iomanip>
#include <iterator>
#include <span>
#include <type_traits>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "common/types.h"
#include "compat/golden_fields.h"
#include "core/compressor.h"

namespace transpwr {
namespace {

constexpr double kBound = 1e-2;

/// The golden random walk with every fifth value negated, so the pins
/// cover the sign-bitmap path of the transformed schemes as well.
template <typename T>
std::vector<T> signed_field(std::size_t n, std::uint64_t seed) {
  auto v = golden::field<T>(n, seed);
  for (std::size_t i = 0; i < n; i += 5) v[i] = -v[i];
  return v;
}

const Dims kDims3(10, 13, 14);  // partial blocks along every axis
const Dims kDims1(3000);        // several ISABELA windows, the last partial

template <typename T>
std::vector<T> field3() {
  return golden::field<T>(kDims3.count(), 2018);
}

template <typename T>
std::vector<T> field1() {
  return signed_field<T>(kDims1.count(), 4242);
}

template <typename T>
std::vector<std::uint8_t> compress(Scheme s, const std::vector<T>& data,
                                   Dims dims) {
  CompressorParams p;
  p.bound = kBound;
  return make_compressor(s)->compress(std::span<const T>(data), dims, p);
}

struct Pin {
  Scheme scheme;
  std::uint64_t f32_3d, f32_1d, f64_3d, f64_1d;
};

constexpr Pin kPins[] = {
    {Scheme::kSzAbs,
     0xc73f4edb35e5327bULL, 0xb628266bc41da307ULL,
     0x87bd6ea523962f5eULL, 0xe1eb98fc73e280b2ULL},
    {Scheme::kSzPwr,
     0xb69137266a637748ULL, 0xd51a0062a1fa8e6cULL,
     0xb7e1b68f4a493fc5ULL, 0xce6814fa1e5eff5aULL},
    {Scheme::kSzT,
     0xed7a653e1e085dfcULL, 0x2ef4200ab27cc0abULL,
     0x7b3a8a5bce4d0823ULL, 0x4ab1d6db523fc37bULL},
    {Scheme::kZfpP,
     0x63d3d2a1a5d53d59ULL, 0x7c8a79419dbc9fb6ULL,
     0x9755f3c5377c7cf7ULL, 0x24176ab07ee58b35ULL},
    {Scheme::kZfpT,
     0xf542ab0af53dda62ULL, 0x80dc5567f67edbdeULL,
     0x5e29a3d68371e732ULL, 0xec5f2c78c9552108ULL},
    {Scheme::kFpzip,
     0x9a33cd53bb573772ULL, 0x7ee863224eecaab7ULL,
     0x2edafbb74569f979ULL, 0xd143565fa6ec58f6ULL},
    {Scheme::kIsabela,
     0xc07c5aa624f069d4ULL, 0x433b843301a36458ULL,
     0xba3aa43cf28be5cfULL, 0xda5e69935db65df9ULL},
    {Scheme::kSziT,
     0x22b317c4ad8dcf6aULL, 0x3c23da8747c3706aULL,
     0x02982ee224d993e8ULL, 0x3c62ca29c829d2b2ULL},
};

template <typename T>
void expect_pin(Scheme s, const std::vector<T>& data, Dims dims,
                std::uint64_t pin, const char* what) {
  const std::uint64_t got = fnv1a64(compress<T>(s, data, dims));
  EXPECT_EQ(got, pin) << scheme_name(s) << " " << what << ": got 0x"
                      << std::hex << std::setw(16) << std::setfill('0')
                      << got;
}

TEST(SchemePins, EveryStreamMatchesItsRecordedDigest) {
  const auto f3 = field3<float>();
  const auto f1 = field1<float>();
  const auto d3 = field3<double>();
  const auto d1 = field1<double>();
  ASSERT_EQ(std::size(kPins), all_schemes().size());
  for (const Pin& pin : kPins) {
    expect_pin(pin.scheme, f3, kDims3, pin.f32_3d, "f32 3-D");
    expect_pin(pin.scheme, f1, kDims1, pin.f32_1d, "f32 1-D");
    expect_pin(pin.scheme, d3, kDims3, pin.f64_3d, "f64 3-D");
    expect_pin(pin.scheme, d1, kDims1, pin.f64_1d, "f64 1-D");
  }
}

/// Compress the 1-D field with `s`, set the header byte at `offset` to
/// `value`, and expect the scheme's decoder to refuse the stream.
template <typename T>
void expect_refused(Scheme s, std::size_t offset, std::uint8_t value) {
  auto stream = compress<T>(s, field1<T>(), kDims1);
  ASSERT_GT(stream.size(), offset);
  stream[offset] = value;
  auto comp = make_compressor(s);
  if constexpr (std::is_same_v<T, float>)
    EXPECT_THROW(comp->decompress_f32(stream), StreamError);
  else
    EXPECT_THROW(comp->decompress_f64(stream), StreamError);
}

// Each codec header is magic(4) dtype(1) nd(1), then the mode byte.
constexpr std::size_t kModeByte = 6;

TEST(SchemePins, ZfpFixedRateModeByteIsRefused) {
  expect_refused<float>(Scheme::kZfpP, kModeByte, 2);
  expect_refused<double>(Scheme::kZfpP, kModeByte, 2);
}

TEST(SchemePins, FpzipRangeCoderEntropyByteIsRefused) {
  expect_refused<float>(Scheme::kFpzip, kModeByte, 1);
  expect_refused<double>(Scheme::kFpzip, kModeByte, 1);
}

TEST(SchemePins, IsabelaLinearFitByteIsRefused) {
  expect_refused<float>(Scheme::kIsabela, kModeByte, 0);
  expect_refused<double>(Scheme::kIsabela, kModeByte, 0);
}

}  // namespace
}  // namespace transpwr
