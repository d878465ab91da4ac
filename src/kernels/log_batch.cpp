#include "kernels/log_batch.h"

#include <algorithm>
#include <cmath>

#include "kernels/dispatch.h"
#include "kernels/fastmath.h"

namespace transpwr {
namespace kernels {
namespace detail {

// Defined in log_forward_avx2.cpp / log_forward_avx512.cpp; call only
// after the matching cpu_supports check.
void log_forward_f32_words_avx2(const float* in, float* mapped,
                                std::size_t nwords, double scale,
                                std::uint64_t* sign_words,
                                std::uint64_t* zero_words,
                                double* max_abs_log, LogFwdFlags* flags);
void log_forward_f32_words_avx512(const float* in, float* mapped,
                                  std::size_t nwords, double scale,
                                  std::uint64_t* sign_words,
                                  std::uint64_t* zero_words,
                                  double* max_abs_log, LogFwdFlags* flags);

}  // namespace detail

namespace {

bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

bool cpu_has_avx512() {
  // avx512dq implies avx512f; DQ supplies VCVTQQ2PD for the exponent.
  static const bool has = __builtin_cpu_supports("avx512dq");
  return has;
}

// Scalar reference body of log_forward_f32_block; also serves the final
// partial word of the native path. `in` is 64-aligned relative to the word
// buffers (the caller slices on bitmap-word boundaries).
void log_forward_f32_generic(const float* in, float* mapped, std::size_t n,
                             double scale, std::uint64_t* sign_words,
                             std::uint64_t* zero_words, double* max_abs_log,
                             LogFwdFlags* flags) {
  double mx = *max_abs_log;
  bool neg = false, zer = false, nf = false;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t word_end = std::min(n, (i & ~std::size_t{63}) + 64);
    std::uint64_t sw = 0, zw = 0;
    for (; i < word_end; ++i) {
      const double v = static_cast<double>(in[i]);
      if (!std::isfinite(v)) nf = true;
      sw |= static_cast<std::uint64_t>(v < 0) << (i & 63);
      zw |= static_cast<std::uint64_t>(v == 0) << (i & 63);
      const double tin = v == 0 ? 1.0 : std::abs(v);
      const double lv = fast_log2(tin) * scale;
      mapped[i] = static_cast<float>(lv);
      const double m = std::abs(lv);
      if (m > mx) mx = m;
    }
    sign_words[(i - 1) >> 6] = sw;
    zero_words[(i - 1) >> 6] = zw;
    neg |= sw != 0;
    zer |= zw != 0;
  }
  *max_abs_log = mx;
  if (neg) flags->any_negative = true;
  if (zer) flags->has_zeros = true;
  if (nf) flags->non_finite = true;
}

}  // namespace

void log_forward_f32_block(const float* in, float* mapped, std::size_t n,
                           double scale, std::uint64_t* sign_words,
                           std::uint64_t* zero_words, double* max_abs_log,
                           LogFwdFlags* flags) {
  std::size_t head = 0;
  if (active() == Dispatch::kNative) {
    const std::size_t nwords = n / 64;
    if (nwords && cpu_has_avx512()) {
      detail::log_forward_f32_words_avx512(in, mapped, nwords, scale,
                                           sign_words, zero_words,
                                           max_abs_log, flags);
      head = nwords * 64;
    } else if (nwords && cpu_has_avx2()) {
      detail::log_forward_f32_words_avx2(in, mapped, nwords, scale,
                                         sign_words, zero_words, max_abs_log,
                                         flags);
      head = nwords * 64;
    }
  }
  if (head < n)
    log_forward_f32_generic(in + head, mapped + head, n - head, scale,
                            sign_words + head / 64, zero_words + head / 64,
                            max_abs_log, flags);
}

void log2_scaled_batch(const double* in, double* out, std::size_t n,
                       double scale) {
  for (std::size_t i = 0; i < n; ++i) out[i] = fast_log2(in[i]) * scale;
}

void exp2_scaled_batch(const double* in, double* out, std::size_t n,
                       double scale) {
  for (std::size_t i = 0; i < n; ++i) out[i] = fast_exp2(in[i] * scale);
}

}  // namespace kernels
}  // namespace transpwr
