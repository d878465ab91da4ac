#ifndef TRANSPWR_FPZIP_FPZIP_H
#define TRANSPWR_FPZIP_FPZIP_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace transpwr {
namespace fpzip {

/// FPZIP-like predictive floating-point coder (clean-room).
///
/// The paper's strongest baseline: it takes a *precision* parameter `p` (the
/// number of leading bits of each IEEE value that are kept) rather than an
/// error bound. Mantissa truncation toward zero keeps the pointwise relative
/// error strictly below 2^-(p-9) for float (2^-(p-12) for double); the
/// truncated values are then coded losslessly with a Lorenzo predictor over
/// the monotonic integer mapping of IEEE floats plus magnitude-class entropy
/// coding. This reproduces FPZIP's signature behaviour in the paper: strict
/// bounds, exact zeros, but a compression ratio that moves in precision-bit
/// steps rather than tracking the requested bound. The residual magnitude
/// classes are coded with a two-pass static Huffman code.
struct Params {
  std::uint32_t precision = 19;  ///< bits kept; [9,32] float, [12,64] double
};

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params);

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out = nullptr);

/// Smallest precision whose guaranteed max pointwise relative error is
/// <= `rel_bound` (the tuning the paper performs for FPZIP's Table IV rows).
template <typename T>
std::uint32_t precision_for_rel_bound(double rel_bound);

/// Guaranteed max pointwise relative error at precision `p`.
template <typename T>
double max_rel_error_for_precision(std::uint32_t p);

}  // namespace fpzip
}  // namespace transpwr

#endif  // TRANSPWR_FPZIP_FPZIP_H
