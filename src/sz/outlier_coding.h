#ifndef TRANSPWR_SZ_OUTLIER_CODING_H
#define TRANSPWR_SZ_OUTLIER_CODING_H

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/bitstream.h"
#include "common/decode_guard.h"
#include "common/error.h"

namespace transpwr {
namespace sz_detail {

/// SZ 1.4's binary representation analysis for unpredictable values:
/// consecutive outliers usually share sign/exponent/high-mantissa bytes, so
/// each is XORed with its predecessor and only the differing low bytes are
/// stored, prefixed by a small leading-equal-byte count.
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
std::vector<std::uint8_t> encode_outliers(const std::vector<T>& values) {
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
  return bw.take();
}

template <typename T>
std::vector<T> decode_outliers(std::span<const std::uint8_t> bytes) {
  using Bits = typename OutlierTraits<T>::Bits;
  constexpr unsigned total_bytes = sizeof(T);
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

/// Entropy-gated LZ pass over Huffman bytes: only pays off when the coded
/// stream still carries structure. Returns true if LZ was applied.
bool maybe_lz(std::vector<std::uint8_t>& coded, std::size_t threads = 0);

}  // namespace sz_detail
}  // namespace transpwr

#endif  // TRANSPWR_SZ_OUTLIER_CODING_H
