#include "kernels/crc32c.h"

#include <cstddef>
#include <cstring>

#include "kernels/dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define TRANSPWR_CRC32C_SSE42 1
#endif

namespace transpwr {
namespace kernels {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected 0x1EDC6F41

// The native path checksums three lanes of one block side by side (the
// crc32 instruction has a 3-cycle latency and issues every cycle), then
// folds them together by shifting each partial CRC past the lanes after
// it. A long block carries the bulk; short blocks take the remainder so
// that at most 3 * kShortLane - 1 bytes run single-stream.
constexpr std::size_t kLongLane = 4096;
constexpr std::size_t kShortLane = 256;

// Operator tables over the raw (un-inverted) CRC state.
struct Tables {
  // slice[k][b]: byte b followed by k zero bytes (slicing-by-8).
  std::uint32_t slice[8][256];
  // Appending `lane` zero bytes, split by the byte of the state it acts on.
  std::uint32_t shift_long[4][256];
  std::uint32_t shift_short[4][256];
};

void fill_shift(const Tables& t, std::size_t lane,
                std::uint32_t (*shift)[256]) {
  // Appending zeros is linear in the state: push each state bit through
  // `lane` zero bytes once, then tabulate every byte's combination.
  std::uint32_t basis[32];
  for (int bit = 0; bit < 32; ++bit) {
    std::uint32_t c = std::uint32_t{1} << bit;
    for (std::size_t i = 0; i < lane; ++i) c = t.slice[0][c & 0xff] ^ (c >> 8);
    basis[bit] = c;
  }
  for (int k = 0; k < 4; ++k)
    for (int b = 0; b < 256; ++b) {
      std::uint32_t v = 0;
      for (int bit = 0; bit < 8; ++bit)
        if ((b >> bit) & 1) v ^= basis[8 * k + bit];
      shift[k][b] = v;
    }
}

const Tables& tables() {
  static const Tables t = [] {
    Tables t{};
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t c = b;
      for (int i = 0; i < 8; ++i) c = (c >> 1) ^ (kPoly & (0u - (c & 1)));
      t.slice[0][b] = c;
    }
    for (int k = 1; k < 8; ++k)
      for (int b = 0; b < 256; ++b) {
        const std::uint32_t prev = t.slice[k - 1][b];
        t.slice[k][b] = (prev >> 8) ^ t.slice[0][prev & 0xff];
      }
    fill_shift(t, kLongLane, t.shift_long);
    fill_shift(t, kShortLane, t.shift_short);
    return t;
  }();
  return t;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

std::uint32_t crc32c_generic(std::uint32_t c, const std::uint8_t* p,
                             std::size_t n) {
  const auto& t = tables().slice;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint64_t w = load_u64(p) ^ c;
    c = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^ t[5][(w >> 16) & 0xff] ^
        t[4][(w >> 24) & 0xff] ^ t[3][(w >> 32) & 0xff] ^
        t[2][(w >> 40) & 0xff] ^ t[1][(w >> 48) & 0xff] ^ t[0][w >> 56];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c;
}

#ifdef TRANSPWR_CRC32C_SSE42

bool cpu_has_sse42() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}

std::uint32_t shift(const std::uint32_t (*s)[256], std::uint32_t c) {
  return s[0][c & 0xff] ^ s[1][(c >> 8) & 0xff] ^ s[2][(c >> 16) & 0xff] ^
         s[3][c >> 24];
}

// Consume whole 3 * lane blocks from (p, n).
__attribute__((target("sse4.2"))) std::uint32_t crc32c_lanes(
    std::uint32_t c, const std::uint8_t*& p, std::size_t& n, std::size_t lane,
    const std::uint32_t (*s)[256]) {
  for (; n >= 3 * lane; n -= 3 * lane) {
    std::uint64_t c0 = c, c1 = 0, c2 = 0;
    for (const std::uint8_t* end = p + lane; p < end; p += 8) {
      c0 = _mm_crc32_u64(c0, load_u64(p));
      c1 = _mm_crc32_u64(c1, load_u64(p + lane));
      c2 = _mm_crc32_u64(c2, load_u64(p + 2 * lane));
    }
    c = shift(s, static_cast<std::uint32_t>(c0)) ^
        static_cast<std::uint32_t>(c1);
    c = shift(s, c) ^ static_cast<std::uint32_t>(c2);
    p += 2 * lane;
  }
  return c;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  for (; n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0; --n, ++p)
    c = _mm_crc32_u8(c, *p);
  const Tables& t = tables();
  c = crc32c_lanes(c, p, n, kLongLane, t.shift_long);
  c = crc32c_lanes(c, p, n, kShortLane, t.shift_short);
  std::uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) c64 = _mm_crc32_u64(c64, load_u64(p));
  c = static_cast<std::uint32_t>(c64);
  for (; n > 0; --n, ++p) c = _mm_crc32_u8(c, *p);
  return c;
}

#endif  // TRANSPWR_CRC32C_SSE42

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  const std::uint32_t state = ~crc;
#ifdef TRANSPWR_CRC32C_SSE42
  if (active() == Dispatch::kNative && cpu_has_sse42())
    return ~crc32c_sse42(state, bytes.data(), bytes.size());
#endif
  return ~crc32c_generic(state, bytes.data(), bytes.size());
}

}  // namespace kernels
}  // namespace transpwr
