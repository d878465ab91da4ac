#ifndef TRANSPWR_CORE_TRANSFORMED_H
#define TRANSPWR_CORE_TRANSFORMED_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/log_transform.h"

namespace transpwr {

/// SZ_T / ZFP_T: Algorithm 1 of the paper. Wraps an absolute-error-bounded
/// inner codec with the logarithmic pre/post-processing stages:
/// forward log-map the data, compress the mapped data with b'_a, and carry
/// the (losslessly compressed) sign bitmap alongside.
enum class InnerCodec : std::uint8_t { kSz = 0, kZfp = 1, kSzInterp = 2 };

struct TransformedParams {
  double rel_bound = 1e-3;
  double log_base = 2.0;
  std::size_t threads = 0;  ///< transform-stage workers; 0 => hardware
};

/// The transform stages (paper Table III) are recorded as obs spans:
/// "transformed.compress/pre" (forward log map + sign compression) and
/// "transformed.decompress/post" (inverse map + sign decompression), each
/// beside an "inner" span for the inner codec.
///
/// With the SZ and SZ-interp inner codecs, `reconstruction` (when set)
/// receives exactly what transformed_decompress() of the returned stream
/// yields: the inner codec's own log-domain reconstruction, run through
/// the decoder's inverse in place ("transformed.compress/post"). ZFP has
/// no in-loop reconstruction, so kZfp refuses a non-null `reconstruction`.
template <typename T>
std::vector<std::uint8_t> transformed_compress(
    std::span<const T> data, Dims dims, InnerCodec codec,
    const TransformedParams& p, std::vector<T>* reconstruction = nullptr);

/// `threads` controls the inverse-transform stage; 0 => hardware
/// concurrency.
template <typename T>
std::vector<T> transformed_decompress(std::span<const std::uint8_t> stream,
                                      Dims* dims_out = nullptr,
                                      std::size_t threads = 0);

}  // namespace transpwr

#endif  // TRANSPWR_CORE_TRANSFORMED_H
