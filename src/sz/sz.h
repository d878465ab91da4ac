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
///   2. linear-scaling quantization of the prediction error into
///      `quant_intervals` bins of width 2*eb (unpredictable points are
///      stored verbatim as outliers);
///   3. custom Huffman coding of the quantization indices;
///   4. an LZ77 "gzip" pass over the Huffman bytes (kept only if smaller).
///
/// Modes:
///   - kAbs: one absolute bound `bound` for every point.
///   - kPwrBlock: the blockwise pointwise-relative baseline of Di et al.
///     [12] — the field is cut into `block_edge`^nd blocks and each block is
///     compressed with absolute bound `bound * 2^floor(log2(min nonzero
///     |x|))`. Zero values inside a nonzero block may be modified (the
///     paper's `*` annotation for SZ_PWR).
enum class Mode : std::uint8_t { kAbs = 0, kPwrBlock = 1 };

/// Prediction strategy.
///   kLorenzo — the SZ 1.4 default used throughout the paper.
///   kAuto    — SZ 2.x-style hybrid: the field is cut into small blocks and
///              each block picks, from a sampled error estimate, either the
///              Lorenzo predictor or a per-block linear regression
///              f(x,y,z) = b0 + b1 x + b2 y + b3 z whose coefficients are
///              stored in the stream. Regression wins on locally planar
///              data and needs no reconstructed neighbors.
enum class Predictor : std::uint8_t { kLorenzo = 0, kAuto = 1 };

struct Params {
  Mode mode = Mode::kAbs;
  double bound = 1e-3;           ///< absolute bound (kAbs) or rel ratio (kPwrBlock)
  std::uint32_t quant_intervals = 65536;  ///< power of two, >= 4
  std::uint32_t block_edge = 0;  ///< kPwrBlock block edge; 0 => default per nd
  bool lz_stage = true;          ///< apply the LZ77 stage after Huffman
  Predictor predictor = Predictor::kLorenzo;
  /// Worker cap for the block-parallel entropy stage (0 => hardware
  /// default). Output bytes are identical for every value.
  std::size_t threads = 0;
};

/// Stage times are recorded as obs spans under "sz.compress" (predict,
/// entropy_encode) and "sz.decompress" (entropy_decode, reconstruct).
template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params);

/// Decompress a stream produced by compress(). The stream is
/// self-describing; `dims_out` receives the original shape. Streams carry
/// a version marker: v2 streams decode the entropy blocks in parallel
/// (`threads`), v1 streams from older writers still decode serially.
template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out = nullptr, std::size_t threads = 0);

}  // namespace sz
}  // namespace transpwr

#endif  // TRANSPWR_SZ_SZ_H
