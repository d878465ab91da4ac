// Batched polynomial log2/exp2 with a post/pre scale, the kernels behind
// the float-payload log transform. The two scaled batches have one body
// each, a plain per-element loop that the compiler vectorizes as written
// (a hand-unrolled form measures no faster at t=1).
// log_forward_f32_block has a native form, the AVX-512/AVX2 word kernels,
// which run several times faster than its scalar body; both forms run the
// same per-element arithmetic, so the dispatch never changes the bits.
#ifndef TRANSPWR_KERNELS_LOG_BATCH_H_
#define TRANSPWR_KERNELS_LOG_BATCH_H_

#include <cstddef>
#include <cstdint>

namespace transpwr {
namespace kernels {

// out[i] = fast_log2(in[i]) * scale. scale = 1/log2(base) turns the result
// into log_base; pass 1.0 for base 2 (multiplying by 1.0 is exact).
void log2_scaled_batch(const double* in, double* out, std::size_t n,
                       double scale);

// out[i] = fast_exp2(in[i] * scale). scale = log2(base) turns a log_base
// value back into the linear domain; pass 1.0 for base 2.
void exp2_scaled_batch(const double* in, double* out, std::size_t n,
                       double scale);

// OR-accumulated classification flags of a forward block.
struct LogFwdFlags {
  bool any_negative = false;
  bool has_zeros = false;
  bool non_finite = false;
};

// Fused float forward pass over one block: per element i,
//   v       = (double)in[i]
//   mapped[i] = (float)(fast_log2(v == 0 ? 1.0 : |v|) * scale)
// while packing sign bits (v < 0) and zero bits (v == 0) a word at a time
// into sign_words/zero_words (bit i & 63 of word i / 64; whole words are
// overwritten, the final partial word keeps bits >= n clear), OR-ing the
// classification into *flags and folding max |mapped-domain log| into
// *max_abs_log. Per-element arithmetic is identical across dispatches; the
// native path runs 8-wide AVX-512 (preferred, needs AVX512DQ) or 4-wide
// AVX2 (both per-lane IEEE ops, no FMA) when the CPU has them. Callers hand
// word-aligned blocks: n % 64 == 0 except the last block.
void log_forward_f32_block(const float* in, float* mapped, std::size_t n,
                           double scale, std::uint64_t* sign_words,
                           std::uint64_t* zero_words, double* max_abs_log,
                           LogFwdFlags* flags);

}  // namespace kernels
}  // namespace transpwr

#endif  // TRANSPWR_KERNELS_LOG_BATCH_H_
