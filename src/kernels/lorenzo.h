// Lorenzo prediction + linear-scaling quantization, shared by the sz and
// interp codecs. Three parts:
//
//  - Per-point helpers (lorenzo_predict / quantize_point / dequantize_point):
//    the single source of truth for the stencil and the quantizer
//    arithmetic, verbatim the expressions the codecs carried before the
//    kernel layer existed. Streams stay bit-identical. Every encode point
//    outside the wavefront and every decode point outside an interior run,
//    under either dispatch, runs these.
//
//  - The 3-D wavefront encode (lorenzo_quant_wavefront3): the one native
//    encode fast path. It advances W interior rows in a staggered front so
//    W reconstructed-value recurrences are in flight at once.
//
//  - Interior decode runs (lorenzo_recon_run): the native decode fast path.
//    sz::decompress has one row sweep; under kNative it hands each
//    constant-bound segment's full-stencil interior to this kernel, which
//    keeps the row-above / plane-above loads in sliding locals.
//
// The fast paths evaluate the exact per-point expressions in an order that
// respects every data dependency, so codes and reconstructed values match
// the per-point path bit for bit.
#ifndef TRANSPWR_KERNELS_LORENZO_H_
#define TRANSPWR_KERNELS_LORENZO_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/error.h"
#include "common/numeric.h"
#include "common/types.h"
#include "kernels/fastmath.h"

namespace transpwr {
namespace kernels {

// Boundary-checked Lorenzo predictor over the reconstructed buffer;
// out-of-range neighbors contribute 0. nd in {1,2,3}; sy/sz are element
// strides of the y and z axes (0 when the axis does not exist).
template <typename T>
inline double lorenzo_predict(const T* r, int nd, std::size_t sy,
                              std::size_t sz, std::size_t z, std::size_t y,
                              std::size_t x, std::size_t idx) {
  auto at = [&](std::size_t i) { return static_cast<double>(r[i]); };
  switch (nd) {
    case 1:
      return x > 0 ? at(idx - 1) : 0.0;
    case 2: {
      double a = x > 0 ? at(idx - 1) : 0.0;
      double b = y > 0 ? at(idx - sy) : 0.0;
      double ab = (x > 0 && y > 0) ? at(idx - sy - 1) : 0.0;
      return a + b - ab;
    }
    default: {
      double c100 = z > 0 ? at(idx - sz) : 0.0;
      double c010 = y > 0 ? at(idx - sy) : 0.0;
      double c001 = x > 0 ? at(idx - 1) : 0.0;
      double c110 = (z > 0 && y > 0) ? at(idx - sz - sy) : 0.0;
      double c101 = (z > 0 && x > 0) ? at(idx - sz - 1) : 0.0;
      double c011 = (y > 0 && x > 0) ? at(idx - sy - 1) : 0.0;
      double c111 = (z > 0 && y > 0 && x > 0) ? at(idx - sz - sy - 1) : 0.0;
      return c100 + c010 + c001 - c110 - c101 - c011 + c111;
    }
  }
}

template <typename T>
struct QuantStep {
  std::uint32_t code;  // 0 => outlier
  T recon;
};

// One step of the linear-scaling quantizer. two_eb must be 2.0 * eb and
// threshold (radius - 0.5) * 2.0 * eb, hoisted by the caller; the
// expressions inside match the historical inline code exactly (NaN data
// falls to the outlier path via the ordered compare).
template <typename T>
inline QuantStep<T> quantize_point(T orig, double pred, double eb,
                                   double two_eb, double threshold,
                                   std::int64_t radius) {
  const double v = static_cast<double>(orig);
  const double diff = v - pred;
  if (std::abs(diff) < threshold) {
    const std::int64_t q = llround_exact(diff / two_eb);
    const T r = narrow_to<T>(pred + two_eb * static_cast<double>(q));
    if (std::abs(static_cast<double>(r) - v) <= eb)
      return {static_cast<std::uint32_t>(radius + q), r};
  }
  return {0, orig};
}

template <typename T>
inline T dequantize_point(double pred, double two_eb, std::int64_t q) {
  return narrow_to<T>(pred + two_eb * static_cast<double>(q));
}

// Wavefront encode of W consecutive interior rows (same z >= 1 plane, all
// y >= 1, full rows [0, nx), constant bound). Lane l covers row
// base + l * sy; at step t lane l sits at x = t - l, so each row trails
// the row above by exactly one column and every stencil load (row above
// at x and x - 1, previous plane anywhere) is final before it is read.
// Each point runs quantize_point's expressions with its branch turned into
// selects, and sums the stencil in lorenzo_predict's order — the wavefront
// only reorders points that do not depend on each other, so codes and
// recon match the per-point sweep bit for bit.
// Why it is faster: the recon recurrence serializes each row at roughly
// one point per chain latency (divide + round-trip to int and back); W
// staggered rows keep W independent chains in flight. Caller guarantees
// nx >= W.
template <typename T, int W>
inline void lorenzo_quant_wavefront3(const T* data, T* recon,
                                     std::uint32_t* codes, std::size_t base,
                                     std::size_t nx, std::size_t sy,
                                     std::size_t sz, double eb, double two_eb,
                                     double threshold, std::int64_t radius) {
  double prev[W], prev_up[W], prev_zz[W], prev_zy[W];
  // x == 0 entry point of lane l: lorenzo_predict's nd == 3 expression with
  // the x-dependent neighbors zero, then the select-based quantizer body.
  // Also seeds the sliding stencil for x == 1 (c101/c011/c111 of the next
  // column are this column's c100/c010/c110).
  const auto boundary_step = [&](int l) {
    const std::size_t idx = base + static_cast<std::size_t>(l) * sy;
    const double c100 = static_cast<double>(recon[idx - sz]);
    const double c010 = static_cast<double>(recon[idx - sy]);
    const double c110 = static_cast<double>(recon[idx - sz - sy]);
    const double pred = c100 + c010 + 0.0 - c110 - 0.0 - 0.0 + 0.0;
    const double v = static_cast<double>(data[idx]);
    const double diff = v - pred;
    const bool predictable = std::abs(diff) < threshold;
    const double ratio = predictable ? diff / two_eb : 0.0;
    const std::int64_t q = llround_exact(ratio);
    const T r = narrow_to<T>(pred + two_eb * static_cast<double>(q));
    const bool accept =
        predictable && std::abs(static_cast<double>(r) - v) <= eb;
    codes[idx] = accept ? static_cast<std::uint32_t>(radius + q) : 0u;
    const T rv = accept ? r : data[idx];
    recon[idx] = rv;
    prev[l] = static_cast<double>(rv);
    prev_zz[l] = c100;
    prev_up[l] = c010;
    prev_zy[l] = c110;
  };
  const auto step = [&](int l, std::size_t x) {
    const std::size_t idx = base + static_cast<std::size_t>(l) * sy + x;
    const double c100 = static_cast<double>(recon[idx - sz]);
    const double c010 = static_cast<double>(recon[idx - sy]);
    const double c110 = static_cast<double>(recon[idx - sz - sy]);
    const double pred =
        c100 + c010 + prev[l] - c110 - prev_zz[l] - prev_up[l] + prev_zy[l];
    prev_zz[l] = c100;
    prev_up[l] = c010;
    prev_zy[l] = c110;
    const double v = static_cast<double>(data[idx]);
    const double diff = v - pred;
    const bool predictable = std::abs(diff) < threshold;
    const double ratio = predictable ? diff / two_eb : 0.0;
    const std::int64_t q = llround_exact(ratio);
    const T r = narrow_to<T>(pred + two_eb * static_cast<double>(q));
    const bool accept =
        predictable && std::abs(static_cast<double>(r) - v) <= eb;
    codes[idx] = accept ? static_cast<std::uint32_t>(radius + q) : 0u;
    const T rv = accept ? r : data[idx];
    recon[idx] = rv;
    prev[l] = static_cast<double>(rv);
  };
  for (int t = 0; t < W; ++t) {  // ramp: lane t enters with its x == 0
    boundary_step(t);
    for (int l = 0; l < t; ++l) step(l, static_cast<std::size_t>(t - l));
  }
  for (std::size_t t = W; t < nx; ++t)  // steady state: all W lanes live
    for (int l = 0; l < W; ++l) step(l, t - static_cast<std::size_t>(l));
  for (std::size_t t = nx; t + 1 < nx + W; ++t)  // drain
    for (int l = static_cast<int>(t - nx) + 1; l < W; ++l)
      step(l, t - static_cast<std::size_t>(l));
}

// Decode of a contiguous interior x-run [idx0, idx0 + len) of one row under
// a constant bound, from codes + outlier stream. Caller guarantees every
// point has a full ND-dimensional stencil: idx0's x coordinate >= 1, and
// for ND >= 2 the row is not the first of its plane (nor, for ND == 3, in
// the first plane). outlier_next advances in raster order.
template <int ND, typename T>
inline void lorenzo_recon_run(const std::uint32_t* codes, T* recon,
                              const T* outliers, std::size_t n_outliers,
                              std::size_t& outlier_next, std::size_t idx0,
                              std::size_t len, std::size_t sy, std::size_t sz,
                              double two_eb, std::int64_t radius) {
  double prev = static_cast<double>(recon[idx0 - 1]);
  double prev_up = 0.0, prev_zz = 0.0, prev_zy = 0.0;
  if constexpr (ND >= 2) prev_up = static_cast<double>(recon[idx0 - sy - 1]);
  if constexpr (ND == 3) {
    prev_zz = static_cast<double>(recon[idx0 - sz - 1]);
    prev_zy = static_cast<double>(recon[idx0 - sz - sy - 1]);
  }
  for (std::size_t k = 0; k < len; ++k) {
    const std::size_t idx = idx0 + k;
    double pred;
    if constexpr (ND == 1) {
      pred = prev;
    } else if constexpr (ND == 2) {
      const double up = static_cast<double>(recon[idx - sy]);
      pred = prev + up - prev_up;
      prev_up = up;
    } else {
      const double c100 = static_cast<double>(recon[idx - sz]);
      const double c010 = static_cast<double>(recon[idx - sy]);
      const double c110 = static_cast<double>(recon[idx - sz - sy]);
      pred = c100 + c010 + prev - c110 - prev_zz - prev_up + prev_zy;
      prev_zz = c100;
      prev_up = c010;
      prev_zy = c110;
    }
    const std::uint32_t code = codes[idx];
    T rv;
    if (code == 0) {
      if (outlier_next >= n_outliers)
        throw StreamError("sz: outlier stream exhausted");
      rv = outliers[outlier_next++];
    } else {
      const std::int64_t q = static_cast<std::int64_t>(code) - radius;
      rv = dequantize_point<T>(pred, two_eb, q);
    }
    recon[idx] = rv;
    prev = static_cast<double>(rv);
  }
}

}  // namespace kernels
}  // namespace transpwr

#endif  // TRANSPWR_KERNELS_LORENZO_H_
