#include "sz/sections.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "lossless/blocked_huffman.h"
#include "lossless/huffman.h"
#include "obs/obs.h"

namespace transpwr {
namespace sz_detail {
namespace {

/// Codes-format byte of the stream header (historically just an "LZ
/// applied" flag; v1 writers only emitted 0/1, so old streams parse
/// unchanged).
constexpr std::uint8_t kCodesLz = 1;       // bit 0: LZ pass applied
constexpr std::uint8_t kCodesBlocked = 2;  // bit 1: blocked v2 container

/// Entropy-gated LZ pass over Huffman bytes: only pays off when the coded
/// stream still carries structure. Returns true if LZ was applied.
bool maybe_lz(std::vector<std::uint8_t>& coded, std::size_t threads) {
  if (coded.size() <= 64) return false;
  std::uint32_t hist[256] = {};
  const std::size_t step = std::max<std::size_t>(1, coded.size() / 8192);
  std::size_t samples = 0;
  for (std::size_t i = 0; i < coded.size(); i += step, ++samples)
    ++hist[coded[i]];
  double entropy = 0;
  for (std::uint32_t h : hist)
    if (h) {
      double f = static_cast<double>(h) / static_cast<double>(samples);
      entropy -= f * std::log2(f);
    }
  if (entropy >= 7.2) return false;
  auto squeezed = lossless::compress(coded, threads);
  if (squeezed.size() >= coded.size()) return false;
  coded = std::move(squeezed);
  return true;
}

}  // namespace

CodesSection encode_codes(std::span<const std::uint32_t> codes,
                          std::uint32_t alphabet, std::size_t threads) {
  obs::Span entropy_span("entropy_encode");
  CodesSection section{lossless::blocked_encode(codes, alphabet, threads),
                       kCodesBlocked};
  if (maybe_lz(section.bytes, threads)) section.format |= kCodesLz;
  return section;
}

std::uint8_t check_codes_format(std::uint8_t format, const char* codec) {
  if (format > (kCodesLz | kCodesBlocked))
    throw StreamError(std::string(codec) + ": unknown codes format byte");
  return format;
}

std::vector<std::uint32_t> decode_codes(std::span<const std::uint8_t> section,
                                        std::uint8_t format, std::size_t n,
                                        std::size_t threads,
                                        const char* codec) {
  std::vector<std::uint8_t> unwrapped;
  if (format & kCodesLz) {
    unwrapped = lossless::decompress(section, threads);
    section = unwrapped;
  }
  // Every code costs at least one Huffman bit, so the element count is
  // bounded by the section; reject inflated dims before the big
  // allocations.
  if (n > section.size() * 8)
    throw StreamError(std::string(codec) +
                      ": dims exceed coded stream capacity");
  obs::Span entropy_span("entropy_decode");
  if (format & kCodesBlocked) {
    auto codes = lossless::blocked_decode(section, threads);
    if (codes.size() != n)
      throw StreamError(std::string(codec) +
                        ": blocked code count does not match dims");
    return codes;
  }
  // v1: one Huffman table, then the n codes' bits.
  BitReader br(section);
  HuffmanCoder huff;
  huff.read_table(br);
  std::vector<std::uint32_t> codes(n);
  huff.decode_all(br, codes);
  return codes;
}

}  // namespace sz_detail
}  // namespace transpwr
