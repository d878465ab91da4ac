#ifndef TRANSPWR_ZFP_ZFP_H
#define TRANSPWR_ZFP_ZFP_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace transpwr {
namespace zfp {

/// ZFP 0.5-style transform-based lossy compressor (clean-room).
///
/// Pipeline per 4^d block (paper Sec. IV-B-1):
///   1. block-floating-point alignment: every value is scaled by a common
///      power of two derived from the block's largest exponent and cast to a
///      two's-complement integer;
///   2. an invertible-up-to-rounding lifted orthogonal transform along each
///      dimension decorrelates the block;
///   3. coefficients are reordered by total sequency, mapped to negabinary,
///      and bit planes are coded most-significant first with group testing
///      (embedded coding).
///
/// Modes:
///   - kAccuracy: absolute error bound `tolerance` (the mode our
///     transformation scheme drives as ZFP_T);
///   - kPrecision: keep `precision` bit planes per block — ZFP's `-p` mode,
///     which the paper evaluates as the pointwise-relative *approximation*
///     ZFP_P. It does not strictly bound relative error.
enum class Mode : std::uint8_t { kAccuracy = 0, kPrecision = 1 };

struct Params {
  Mode mode = Mode::kAccuracy;
  /// kAccuracy: absolute error bound. Honored provided it is coarser than
  /// the block-floating-point granularity, i.e. tolerance >= ~2^-21 (float)
  /// / ~2^-50 (double) of the largest magnitude in each block — the same
  /// machine-precision caveat as ZFP's own fixed-accuracy mode.
  double tolerance = 1e-3;
  std::uint32_t precision = 26;  ///< kPrecision: bit planes kept
};

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params);

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out = nullptr);

/// Expose the forward transform of a single gathered block for analysis
/// (used by the paper's Lemma 4 base-invariance study of decorrelation
/// efficiency and coding gain). `values` must hold 4^nd entries; returns the
/// transformed coefficients in sequency order, as doubles scaled back to the
/// value domain.
std::vector<double> transform_block_for_analysis(std::span<const double>
                                                     values,
                                                 int nd);

}  // namespace zfp
}  // namespace transpwr

#endif  // TRANSPWR_ZFP_ZFP_H
