// The two sections every SZ-family stream (TSZ1, SZI1) carries after its
// header: the entropy-coded quantization codes and the XOR-coded outliers.
// Layouts are in docs/formats.md.
#ifndef TRANSPWR_SZ_SECTIONS_H
#define TRANSPWR_SZ_SECTIONS_H

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/bitstream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "lossless/lossless.h"

namespace transpwr {
namespace sz_detail {

/// SZ 1.4's binary representation analysis for unpredictable values:
/// consecutive outliers usually share sign/exponent/high-mantissa bytes, so
/// each is XORed with its predecessor and only the differing low bytes are
/// stored, prefixed by a small leading-equal-byte count. The section is
/// that bit stream through the general-purpose lossless stage.
template <typename T>
struct OutlierTraits;
template <>
struct OutlierTraits<float> {
  using Bits = std::uint32_t;
  static constexpr unsigned lz_bits = 2;  // 0..3 leading equal bytes
};
template <>
struct OutlierTraits<double> {
  using Bits = std::uint64_t;
  static constexpr unsigned lz_bits = 3;  // 0..7 leading equal bytes
};

template <typename T>
std::vector<std::uint8_t> encode_outliers(const std::vector<T>& values,
                                          std::size_t threads) {
  using Bits = typename OutlierTraits<T>::Bits;
  constexpr unsigned total_bytes = sizeof(T);
  BitWriter bw;
  bw.write_bits(values.size(), 64);
  Bits prev = 0;
  for (T v : values) {
    Bits b;
    std::memcpy(&b, &v, sizeof(T));
    Bits x = b ^ prev;
    prev = b;
    unsigned lzb = 0;  // leading (high-order) bytes that match
    while (lzb < total_bytes - 1 &&
           ((x >> (8 * (total_bytes - 1 - lzb))) & 0xff) == 0)
      ++lzb;
    bw.write_bits(lzb, OutlierTraits<T>::lz_bits);
    bw.write_bits(static_cast<std::uint64_t>(x), 8 * (total_bytes - lzb));
  }
  return lossless::compress(bw.take(), threads);
}

template <typename T>
std::vector<T> decode_outliers(std::span<const std::uint8_t> section,
                               std::size_t threads) {
  using Bits = typename OutlierTraits<T>::Bits;
  constexpr unsigned total_bytes = sizeof(T);
  const std::vector<std::uint8_t> bytes =
      lossless::decompress(section, threads);
  BitReader br(bytes);
  auto count = static_cast<std::size_t>(br.read_bits(64));
  // Each outlier costs at least lz_bits + 8 bits > one byte, so any honest
  // count is below the section length; reject before allocating.
  if (count > bytes.size())
    throw StreamError("sz: outlier count exceeds section size");
  check_decode_alloc(count, sizeof(T), "sz outliers");
  std::vector<T> out(count);
  Bits prev = 0;
  for (auto& v : out) {
    auto lzb =
        static_cast<unsigned>(br.read_bits(OutlierTraits<T>::lz_bits));
    Bits x = static_cast<Bits>(br.read_bits(8 * (total_bytes - lzb)));
    Bits b = prev ^ x;
    prev = b;
    std::memcpy(&v, &b, sizeof(T));
  }
  return out;
}

struct CodesSection {
  std::vector<std::uint8_t> bytes;
  std::uint8_t format = 0;  // the header's codes-format byte
};

/// Block-parallel Huffman over `codes` (the v2 container), then the
/// entropy-gated LZ pass, kept only when the coded bytes still carry
/// structure and it shrinks them. Recorded as the "entropy_encode" span.
CodesSection encode_codes(std::span<const std::uint32_t> codes,
                          std::uint32_t alphabet, std::size_t threads);

/// Returns the header's codes-format byte `format` if it names a layout
/// decode_codes reads; throws StreamError, prefixed with `codec`, if not.
std::uint8_t check_codes_format(std::uint8_t format, const char* codec);

/// Inverse of encode_codes for a section written under `format`: unwraps
/// the LZ pass, then decodes all `n` codes up front, from the blocked
/// container or a v1 bare Huffman table + code bits. Throws StreamError,
/// prefixed with `codec`, on a corrupt section or a code count other than
/// `n`. The Huffman stage is recorded as the "entropy_decode" span.
std::vector<std::uint32_t> decode_codes(std::span<const std::uint8_t> section,
                                        std::uint8_t format, std::size_t n,
                                        std::size_t threads,
                                        const char* codec);

}  // namespace sz_detail
}  // namespace transpwr

#endif  // TRANSPWR_SZ_SECTIONS_H
