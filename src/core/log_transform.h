#ifndef TRANSPWR_CORE_LOG_TRANSFORM_H
#define TRANSPWR_CORE_LOG_TRANSFORM_H

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/bitmap.h"
#include "common/types.h"

namespace transpwr {

/// Which exp kernel log_inverse uses to leave the log domain.
///
/// Version-0 streams (and all double payloads) were produced against libm;
/// decoding them with a different exponential would change reconstructed
/// bits, so containers record the writer's kernel version in their header
/// and pick the matching path here. kAuto resolves to the payload type's
/// current writer kernel (fast for float, libm for double).
enum class LogExpPath : std::uint8_t {
  kAuto = 0,
  kLegacyLibm = 1,  ///< LogKernel / libm — decodes version-0 streams
  kFastKernel = 2,  ///< kernels::fast_exp2 — float payloads only
};

/// Log-kernel stream-format version a writer stamps for payload type T:
/// 0 = libm LogKernel (still the double-payload path), 1 = the polynomial
/// kernels::fast_log2/fast_exp2 pair (float payloads).
template <typename T>
constexpr std::uint8_t log_kernel_version() {
  return std::is_same_v<T, float> ? 1 : 0;
}

/// The paper's transformation scheme (Sec. III).
///
/// forward() maps a dataset x to log_base(|x|) so that compressing the
/// mapped data with the *absolute* bound returned in
/// TransformResult::adjusted_abs_bound — Lemma 2's round-off-safe
/// b'_a = log_base(1 + br) - max|log_base x| * eps0 — guarantees the
/// pointwise *relative* bound br after inverse(). Signs are carried in a
/// separate packed bitmap; exact zeros are mapped to a sentinel below the
/// smallest representable magnitude (Algorithm 1 lines 4-5) and restored
/// exactly.
template <typename T>
struct TransformResult {
  std::vector<T> mapped;          ///< log-domain data handed to the inner codec
  Bitmap negative;                ///< per-point sign; empty if none negative
  double adjusted_abs_bound = 0;  ///< b'_a for the inner absolute-error codec
  double zero_threshold = 0;      ///< inverse(): mapped <= this restores 0
  double log_base = 2;
  double max_abs_log = 0;         ///< max |log_base x| over nonzero points
  bool has_zeros = false;
};

/// Forward map. Runs as a fused single parallel pass (log + sign/zero scan
/// + per-thread max|log x| partials) over the shared pool, plus a second
/// parallel fix-up pass only when signs or zeros exist. `threads == 0`
/// resolves to hardware concurrency; output is byte-identical for every
/// thread count (see docs/threading.md).
template <typename T>
TransformResult<T> log_forward(std::span<const T> data, double rel_bound,
                               double base, std::size_t threads = 0);

/// Inverse mapping: exponentiates, restores signs and exact zeros into
/// `out`, which must have mapped.size() elements and may alias `mapped`
/// (an in-place inverse). `negative` may be empty (all values
/// non-negative). Parallel with the same determinism guarantee as
/// log_forward.
template <typename T>
void log_inverse_into(std::span<const T> mapped, const Bitmap& negative,
                      double base, double zero_threshold, std::span<T> out,
                      std::size_t threads = 0,
                      LogExpPath path = LogExpPath::kAuto);

/// log_inverse_into a freshly allocated vector.
template <typename T>
std::vector<T> log_inverse(std::span<const T> mapped, const Bitmap& negative,
                           double base, double zero_threshold,
                           std::size_t threads = 0,
                           LogExpPath path = LogExpPath::kAuto);

/// The error-bound mapping g of Theorem 2 (without the round-off guard):
/// b_a = log_base(1 + b_r).
double bound_forward(double rel_bound, double base);

}  // namespace transpwr

#endif  // TRANSPWR_CORE_LOG_TRANSFORM_H
