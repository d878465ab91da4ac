#ifndef TRANSPWR_SZ_INTERP_H
#define TRANSPWR_SZ_INTERP_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace transpwr {
namespace sz_interp {

/// SZ3-style multi-level interpolation compressor (clean-room).
///
/// Where classic SZ predicts each point from already-decoded raster
/// neighbors (Lorenzo), this traverses the grid coarse-to-fine: the corner
/// point seeds the coarsest grid, and each level halves the stride,
/// predicting the new points by 4-point cubic interpolation (midpoint
/// averaging where the stencil meets the grid edge) along one dimension at
/// a time from the already-reconstructed coarser grid. Residuals go
/// through the same 65536-interval linear-scaling quantization + Huffman
/// (+ gated LZ) stack as SZ, so the absolute error bound is
/// honored identically. Interpolation sees *two-sided* context, which
/// beats one-sided Lorenzo on smooth data — the successor design (SZ3)
/// whose pointwise-relative mode pairs it with exactly the paper's log
/// transform.
struct Params {
  double bound = 1e-3;  ///< absolute error bound
  /// Worker cap for the block-parallel entropy stage (0 => hardware
  /// default). Output bytes are identical for every value.
  std::size_t threads = 0;
};

/// When `recon_out` is set it receives the traversal's reconstructed
/// values, which are exactly what decompress() of the returned stream
/// yields.
template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params,
                                   std::vector<T>* recon_out = nullptr);

/// v2 streams decode their entropy blocks in parallel (`threads`); v1
/// streams from older writers still decode serially. The stored interval
/// count is honored; a fit byte other than cubic (1) is refused.
template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out = nullptr, std::size_t threads = 0);

}  // namespace sz_interp
}  // namespace transpwr

#endif  // TRANSPWR_SZ_INTERP_H
