#ifndef TRANSPWR_ISABELA_ISABELA_H
#define TRANSPWR_ISABELA_ISABELA_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace transpwr {
namespace isabela {

/// ISABELA-like sorting-based compressor (clean-room).
///
/// Per fixed-size window the data is sorted (making it monotone and highly
/// predictable), the sorted curve is approximated by subsampled control
/// points with a Catmull-Rom cubic that mirrors ISABELA's B-spline fit,
/// per-point corrections quantized
/// relative to the local curve value enforce the pointwise relative error
/// bound, and the sort permutation is stored explicitly. The permutation
/// index (log2(window) bits per point) dominates the output — reproducing
/// ISABELA's characteristically low compression ratio and rate in the
/// paper's Figs. 2-3.
struct Params {
  double rel_bound = 1e-2;      ///< pointwise relative error bound
  std::uint32_t window = 1024;  ///< sorting window (power of two)
  std::uint32_t control_every = 32;  ///< control-point subsampling stride
};

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params);

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out = nullptr);

}  // namespace isabela
}  // namespace transpwr

#endif  // TRANSPWR_ISABELA_ISABELA_H
