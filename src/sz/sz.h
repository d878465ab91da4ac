#ifndef TRANSPWR_SZ_SZ_H
#define TRANSPWR_SZ_SZ_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace transpwr {
namespace sz {

/// SZ 1.4-style prediction-based lossy compressor (clean-room).
///
/// Compression pipeline (paper Sec. IV-A-1):
///   1. Lorenzo prediction of each point from already-reconstructed
///      neighbors (1, 3, or 7 neighbors for 1-/2-/3-D data);
///   2. linear-scaling quantization of the prediction error into 65536
///      bins of width 2*eb (unpredictable points are stored verbatim as
///      outliers);
///   3. custom Huffman coding of the quantization indices;
///   4. an LZ77 "gzip" pass over the Huffman bytes (kept only if smaller).
///
/// Modes:
///   - kAbs: one absolute bound `bound` for every point.
///   - kPwrBlock: the blockwise pointwise-relative baseline of Di et al.
///     [12] — the field is cut into blocks (edge 32/12/8 for 1-/2-/3-D) and
///     each block is compressed with absolute bound `bound * 2^floor(log2(
///     min nonzero |x|))`. Zero values inside a nonzero block may be
///     modified (the paper's `*` annotation for SZ_PWR).
enum class Mode : std::uint8_t { kAbs = 0, kPwrBlock = 1 };

struct Params {
  Mode mode = Mode::kAbs;
  double bound = 1e-3;  ///< absolute bound (kAbs) or rel ratio (kPwrBlock)
  /// Worker cap for the block-parallel entropy stage (0 => hardware
  /// default). Output bytes are identical for every value.
  std::size_t threads = 0;
};

/// Stage times are recorded as obs spans under "sz.compress" (predict,
/// entropy_encode) and "sz.decompress" (entropy_decode, reconstruct).
/// When `recon_out` is set it receives the predict sweep's reconstructed
/// values, which are exactly what decompress() of the returned stream
/// yields.
template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params,
                                   std::vector<T>* recon_out = nullptr);

/// Decompress a stream produced by compress(). The stream is
/// self-describing; `dims_out` receives the original shape. All codes are
/// entropy-decoded up front: v2 streams decode their entropy blocks in
/// parallel (`threads`), v1 bare-Huffman streams from older writers
/// serially. One raster sweep then rebuilds the values, row by row; under
/// native dispatch the full-stencil interior of each constant-bound row
/// segment runs kernels::lorenzo_recon_run, with the same bytes as the
/// per-point body. The decoder also reads what older writers could vary:
/// the stored interval count and block edge, and the v1-era hybrid
/// Lorenzo/regression predictor (predictor byte 1), which always takes the
/// per-point body.
template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out = nullptr, std::size_t threads = 0);

}  // namespace sz
}  // namespace transpwr

#endif  // TRANSPWR_SZ_SZ_H
