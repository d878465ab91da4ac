#include "core/log_transform.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/error.h"
#include "common/numeric.h"
#include "common/parallel.h"
#include "core/log_kernel.h"
#include "kernels/log_batch.h"

namespace transpwr {
namespace {

/// Parallel block size. A multiple of Bitmap::kWordBits so concurrent sign
/// writes in the fix-up pass never share a bitmap word.
constexpr std::size_t kGrain = 4096;

/// Batch-kernel tile; lives on the worker's stack.
constexpr std::size_t kTile = 256;

/// Per-task partials of the fused forward pass, cache-line separated so
/// neighbouring slots do not false-share.
struct alignas(64) ForwardPartial {
  double max_abs_log = 0;
  bool any_negative = false;
  bool has_zeros = false;
  bool non_finite = false;
};

/// Per-task partials of the float fused pass (kernel flags + max).
struct alignas(64) ForwardPartialF32 {
  double max_abs_log = 0;
  kernels::LogFwdFlags flags;
};

}  // namespace

double bound_forward(double rel_bound, double base) {
  if (!(rel_bound > 0)) throw ParamError("log transform: bound must be > 0");
  if (!(base > 1)) throw ParamError("log transform: base must be > 1");
  return LogKernel(base).log(1.0 + rel_bound);
}

template <typename T>
TransformResult<T> log_forward(std::span<const T> data, double rel_bound,
                               double base, std::size_t threads) {
  if (!(rel_bound > 0) || !(rel_bound < 1))
    throw ParamError("log transform: rel bound must be in (0, 1)");
  if (!(base > 1)) throw ParamError("log transform: base must be > 1");

  TransformResult<T> r;
  r.log_base = base;
  r.mapped.resize(data.size());
  const LogKernel kernel(base);

  ParallelOptions opts;
  opts.max_threads = threads;
  opts.grain = kGrain;

  // Float payloads map through the polynomial fast kernel (stream
  // log-kernel version 1 — see log_kernel_version); double payloads keep
  // the libm LogKernel, whose eps0 budget leaves no room for a polynomial.
  // The kernel's ~4e-16 relative error sits three decades inside the
  // Lemma 2 guard's float slack, so the bound math below is unchanged.
  constexpr bool kFastPath = std::is_same_v<T, float>;
  const double inv_log2_base = 1.0 / std::log2(base);

  // Fused single pass: mapped[i] = log_base|x_i| lands directly in the
  // output while the same sweep collects signs, zeros, finiteness and the
  // per-task max |log x| partial for the Lemma 2 round-off guard. Float
  // payloads run the word-at-a-time kernel block (sign/zero bits packed as
  // whole bitmap words in the same sweep — no second pass over the data);
  // double payloads keep the tiled libm loop plus the sign/zero fix-up
  // below. Task blocks are bitmap-word aligned (kGrain % 64 == 0) so
  // concurrent word writes never overlap.
  const std::size_t slots = parallel_task_count(data.size(), opts);
  bool any_negative = false;
  double max_abs_log = 0;
  bool non_finite = false;
  std::vector<std::uint64_t> zero_words;
  if constexpr (kFastPath) {
    r.negative.assign(data.size(), false);
    zero_words.assign((data.size() + 63) / 64, 0);
    std::vector<ForwardPartialF32> partials(slots);
    std::uint64_t* sign_words = r.negative.words().data();
    parallel_for_slots(
        data.size(),
        [&](std::size_t slot, std::size_t b, std::size_t e) {
          ForwardPartialF32& p = partials[slot];
          kernels::log_forward_f32_block(
              data.data() + b, r.mapped.data() + b, e - b, inv_log2_base,
              sign_words + b / 64, zero_words.data() + b / 64,
              &p.max_abs_log, &p.flags);
        },
        opts);
    for (const ForwardPartialF32& p : partials) {
      any_negative |= p.flags.any_negative;
      r.has_zeros |= p.flags.has_zeros;
      non_finite |= p.flags.non_finite;
      max_abs_log = std::max(max_abs_log, p.max_abs_log);
    }
    if (!any_negative) r.negative.clear();
  } else {
    std::vector<ForwardPartial> partials(slots);
    parallel_for_slots(
        data.size(),
        [&](std::size_t slot, std::size_t b, std::size_t e) {
          ForwardPartial& p = partials[slot];
          double tile_in[kTile];
          double tile_log[kTile];
          for (std::size_t t = b; t < e; t += kTile) {
            const std::size_t end = std::min(e, t + kTile);
            for (std::size_t i = t; i < end; ++i) {
              double v = static_cast<double>(data[i]);
              if (!std::isfinite(v)) p.non_finite = true;
              if (v < 0) p.any_negative = true;
              if (v == 0) p.has_zeros = true;
              // Zeros feed a dummy 1.0 (log = 0, inert for the max) and get
              // their sentinel in the fix-up pass.
              tile_in[i - t] = v == 0 ? 1.0 : std::abs(v);
            }
            kernel.log_batch(tile_in, tile_log, end - t);
            for (std::size_t i = t; i < end; ++i) {
              double lv = tile_log[i - t];
              r.mapped[i] = static_cast<T>(lv);
              double m = std::abs(lv);
              if (m > p.max_abs_log) p.max_abs_log = m;
            }
          }
        },
        opts);
    for (const ForwardPartial& p : partials) {
      any_negative |= p.any_negative;
      r.has_zeros |= p.has_zeros;
      non_finite |= p.non_finite;
      max_abs_log = std::max(max_abs_log, p.max_abs_log);
    }
  }
  if (non_finite)
    throw ParamError("log transform: non-finite value in input");
  r.max_abs_log = max_abs_log;

  // Lemma 2: shrink the absolute bound by the worst-case round-off the
  // forward mapping itself can introduce at this machine precision.
  const double eps0 = static_cast<double>(std::numeric_limits<T>::epsilon());
  // The final cast back to T after exponentiation can add one more ulp of
  // relative error on top of br, so target a slightly shrunk bound.
  const double br_eff = rel_bound * (1.0 - 8.0 * eps0);
  const double ba = kernel.log(1.0 + br_eff);
  const double guard = max_abs_log * eps0;
  r.adjusted_abs_bound = ba - guard;
  if (!(r.adjusted_abs_bound > 0))
    throw ParamError(
        "log transform: bound too tight for this precision (b'_a <= 0)");

  // Zero handling: park zeros well below the smallest representable
  // magnitude. Sentinel sits 3 bounds under log(min) and the restore
  // threshold 1.5 bounds under, so inner-codec error (<= b'_a) plus storage
  // round-off cannot move a zero across the threshold, nor a real value
  // under it.
  const double log_min = kernel.log(
      static_cast<double>(std::numeric_limits<T>::denorm_min()));
  const double sentinel = log_min - 3.0 * r.adjusted_abs_bound;
  r.zero_threshold = log_min - 1.5 * r.adjusted_abs_bound;
  if (r.has_zeros) {
    const double storage_roundoff = std::abs(sentinel) * eps0;
    if (storage_roundoff > 0.5 * r.adjusted_abs_bound)
      throw ParamError(
          "log transform: bound too tight to keep exact zeros exact");
  }

  // Float path: signs were packed in the main sweep; only zero sentinels
  // remain, planted word-skip fast from the packed zero masks.
  if constexpr (kFastPath) {
    if (r.has_zeros) {
      const T sentinel_t = static_cast<T>(sentinel);
      for (std::size_t w = 0; w < zero_words.size(); ++w) {
        std::uint64_t zw = zero_words[w];
        while (zw) {
          const unsigned bit = static_cast<unsigned>(std::countr_zero(zw));
          r.mapped[w * 64 + bit] = sentinel_t;
          zw &= zw - 1;
        }
      }
    }
    return r;
  }

  // Fix-up pass, only when signs or zeros exist: plant sentinels and set
  // sign bits over the already-resident data. Blocks are 64-bit aligned
  // (kGrain % 64 == 0) so bitmap word writes never race.
  if (any_negative || r.has_zeros) {
    if (any_negative) r.negative.assign(data.size(), false);
    const T sentinel_t = static_cast<T>(sentinel);
    std::uint64_t* sign_words =
        any_negative ? r.negative.words().data() : nullptr;
    parallel_for(
        data.size(),
        [&](std::size_t b, std::size_t e) {
          // Blocks are word-aligned (kGrain % kWordBits == 0), so each task
          // owns its bitmap words outright: signs accumulate in a register
          // and store once per word instead of a read-modify-write per bit.
          std::size_t i = b;
          while (i < e) {
            const std::size_t word_end =
                std::min(e, (i & ~std::size_t{63}) + 64);
            std::uint64_t w = 0;
            for (; i < word_end; ++i) {
              const double v = static_cast<double>(data[i]);
              w |= static_cast<std::uint64_t>(v < 0) << (i & 63);
              if (v == 0) r.mapped[i] = sentinel_t;
            }
            if (sign_words && w) sign_words[(i - 1) >> 6] |= w;
          }
        },
        opts);
  }
  return r;
}

template <typename T>
void log_inverse_into(std::span<const T> mapped, const Bitmap& negative,
                      double base, double zero_threshold, std::span<T> out,
                      std::size_t threads, LogExpPath path) {
  if (!negative.empty() && negative.size() != mapped.size())
    throw ParamError("log inverse: sign bitmap size mismatch");
  if (out.size() != mapped.size())
    throw ParamError("log inverse: output size mismatch");
  const LogKernel kernel(base);
  const bool has_signs = !negative.empty();
  // kAuto mirrors the writer side: fast kernel for float, libm for double.
  // Containers that recorded log-kernel version 0 pass kLegacyLibm so old
  // streams keep decoding bit-exactly. Double payloads never take the fast
  // path regardless of `path`.
  const bool use_fast =
      std::is_same_v<T, float> && path != LogExpPath::kLegacyLibm;
  const double log2_base = std::log2(base);

  ParallelOptions opts;
  opts.max_threads = threads;
  opts.grain = kGrain;
  // Each tile is read whole into tile_in before any of its outputs is
  // written, so `out` may alias `mapped`.
  parallel_for(
      mapped.size(),
      [&](std::size_t b, std::size_t e) {
        double tile_in[kTile];
        double tile_exp[kTile];
        for (std::size_t t = b; t < e; t += kTile) {
          const std::size_t end = std::min(e, t + kTile);
          for (std::size_t i = t; i < end; ++i)
            tile_in[i - t] = static_cast<double>(mapped[i]);
          if (use_fast)
            kernels::exp2_scaled_batch(tile_in, tile_exp, end - t, log2_base);
          else
            kernel.exp_batch(tile_in, tile_exp, end - t);
          for (std::size_t i = t; i < end; ++i) {
            if (tile_in[i - t] <= zero_threshold) {
              out[i] = T{0};
              continue;
            }
            double v = tile_exp[i - t];
            if (has_signs && negative[i]) v = -v;
            // Saturating cast: the exponential of a mapped value near the
            // top of T's range can land one rounding step above max<T>,
            // where a plain double->T cast is undefined. Clamping to max<T>
            // keeps the relative bound (x >= max/(1+br) there).
            out[i] = narrow_to<T>(v);
          }
        }
      },
      opts);
}

template <typename T>
std::vector<T> log_inverse(std::span<const T> mapped, const Bitmap& negative,
                           double base, double zero_threshold,
                           std::size_t threads, LogExpPath path) {
  std::vector<T> out(mapped.size());
  log_inverse_into<T>(mapped, negative, base, zero_threshold, out, threads,
                      path);
  return out;
}

template struct TransformResult<float>;
template struct TransformResult<double>;
template TransformResult<float> log_forward<float>(std::span<const float>,
                                                   double, double,
                                                   std::size_t);
template TransformResult<double> log_forward<double>(std::span<const double>,
                                                     double, double,
                                                     std::size_t);
template void log_inverse_into<float>(std::span<const float>, const Bitmap&,
                                      double, double, std::span<float>,
                                      std::size_t, LogExpPath);
template void log_inverse_into<double>(std::span<const double>,
                                       const Bitmap&, double, double,
                                       std::span<double>, std::size_t,
                                       LogExpPath);
template std::vector<float> log_inverse<float>(std::span<const float>,
                                               const Bitmap&, double, double,
                                               std::size_t, LogExpPath);
template std::vector<double> log_inverse<double>(std::span<const double>,
                                                 const Bitmap&, double,
                                                 double, std::size_t,
                                                 LogExpPath);

}  // namespace transpwr
