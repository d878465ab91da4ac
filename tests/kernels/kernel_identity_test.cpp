// Bit-identity and accuracy contracts of the kernel layer (ISSUE PR6):
// generic and native dispatches must produce byte-identical results on
// every input class the codecs can feed them — denormals, signed zeros,
// NaN/Inf, FLT_MAX-scale magnitudes, values near the log singularity — and
// the scalar building blocks must meet the accuracy bounds the transform's
// error budget assumes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kernels/dispatch.h"
#include "kernels/fastmath.h"
#include "kernels/log_batch.h"
#include "kernels/lorenzo.h"

namespace transpwr {
namespace kernels {
namespace {

double rel_err(double got, double want) {
  if (want == 0.0) return std::abs(got);
  return std::abs(got - want) / std::abs(want);
}

// Inputs covering every edge class the forward transform can feed the log
// kernel (it passes |x| or a dummy 1.0, never <= 0 or non-finite).
std::vector<double> log_edge_inputs() {
  std::vector<double> in = {
      1.0,
      1.0 + 0x1p-52,            // one ulp above the zero of log
      1.0 - 0x1p-53,            // one ulp below
      0x1.6a09e667f3bcdp+0,     // the sqrt(2) split point
      0x1.6a09e667f3bccp+0,     // just below it
      2.0, 0.5, 4.0, 0x1p100, 0x1p-100,
      static_cast<double>(std::numeric_limits<float>::max()),
      static_cast<double>(std::numeric_limits<float>::min()),
      static_cast<double>(std::numeric_limits<float>::denorm_min()),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      0x1.fffffffffffffp-1,     // largest double < 1
      3.0, 10.0, 1e-300, 1e300, 0.7071067811865476,
  };
  Rng rng(12345);
  for (int i = 0; i < 4000; ++i) {
    // Log-uniform over the full float exponent range plus a dense band
    // around 1 where the series does the work.
    double e = (static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) * 250.0;
    in.push_back(std::exp2(e));
    double near1 =
        1.0 + (static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) * 0.01;
    in.push_back(near1);
  }
  return in;
}

TEST(FastLog2, MatchesLibmWithinBudget) {
  for (double x : log_edge_inputs()) {
    const double got = fast_log2(x);
    const double want = std::log2(x);
    // Budget from the transform's Lemma 2 guard is ~6e-8 relative; the
    // kernel is contracted to a few 1e-16.
    EXPECT_LE(rel_err(got, want), 5e-15) << "x = " << x;
  }
}

TEST(FastLog2, ExactOnPowersOfTwoAndOne) {
  EXPECT_EQ(fast_log2(1.0), 0.0);
  for (int e = -1074; e <= 1023; e += 7)
    EXPECT_EQ(fast_log2(std::ldexp(1.0, e)), static_cast<double>(e)) << e;
}

TEST(FastExp2, MatchesLibmWithinBudget) {
  Rng rng(777);
  std::vector<double> in = {0.0, -0.0, 0.5, -0.5, 1.0 / 3.0, -149.5,
                            127.5, -1074.0, 1023.5, -1022.7};
  for (int i = 0; i < 4000; ++i)
    in.push_back((static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) *
                 2090.0);
  for (double v : in) {
    const double got = fast_exp2(v);
    const double want = std::exp2(v);
    if (!std::isfinite(want)) {  // overflow: both must saturate to +inf
      EXPECT_EQ(got, want) << v;
      continue;
    }
    if (want == 0.0 || want < std::numeric_limits<double>::min()) {
      // Underflow region: same limit behavior, up to one unit in the last
      // (denormal) place.
      EXPECT_NEAR(got, want, std::numeric_limits<double>::denorm_min() * 2)
          << v;
      continue;
    }
    EXPECT_LE(rel_err(got, want), 5e-15) << "v = " << v;
  }
}

TEST(FastExp2, ExactOnIntegersAndEdges) {
  for (int e = -1074; e <= 1023; e += 5)
    EXPECT_EQ(fast_exp2(static_cast<double>(e)), std::ldexp(1.0, e)) << e;
  EXPECT_EQ(fast_exp2(0.0), 1.0);
  EXPECT_TRUE(std::isnan(fast_exp2(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(fast_exp2(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(fast_exp2(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_EQ(fast_exp2(-5000.0), 0.0);
  EXPECT_EQ(fast_exp2(5000.0), std::numeric_limits<double>::infinity());
}

TEST(LlroundExact, MatchesLibmOnQuantizerDomain) {
  std::vector<double> in = {0.0,  -0.0, 0.5,  -0.5, 1.5,  -1.5, 2.5,
                            -2.5, 0.49999999999999994,  // largest < 0.5
                            -0.49999999999999994, 1e15, -1e15,
                            2147483646.5, -2147483646.5};
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    double v = (static_cast<double>(rng.next() >> 12) * 0x1p-52 - 0.5) *
               0x1p33;
    in.push_back(v);
    in.push_back(std::floor(v) + 0.5);  // exact tie
  }
  for (double v : in)
    EXPECT_EQ(llround_exact(v), std::llround(v)) << v;
}

// Assert the process is NOT running with FTZ/DAZ (flush-to-zero /
// denormals-are-zero): the guarantee math treats subnormal inputs as real
// values with real logs, and the build must not enable -ffast-math-style
// MXCSR modes behind the library's back. `volatile` keeps the compiler
// from folding the subnormal arithmetic at translation time, so these
// operations hit the FPU with whatever mode the process actually runs.
TEST(LogForwardF32Block, FtzDazAreOff) {
  volatile float nmin = std::numeric_limits<float>::min();
  volatile float quarter = nmin / 4.0f;  // subnormal unless FTZ flushes it
  EXPECT_GT(quarter, 0.0f) << "FTZ is enabled: subnormal results flush";
  EXPECT_LT(quarter, std::numeric_limits<float>::min());

  volatile float dmin = std::numeric_limits<float>::denorm_min();
  volatile float doubled = dmin + dmin;  // 2*denorm_min unless DAZ zeroes in
  EXPECT_EQ(doubled, 2.0f * std::numeric_limits<float>::denorm_min())
      << "DAZ is enabled: subnormal inputs read as zero";

  // With denormals live, the fused forward block must map float
  // denorm_min to its true log2 (-149), not to log2(0).
  const float in = std::numeric_limits<float>::denorm_min();
  float mapped = 0;
  std::uint64_t sign_word = 0, zero_word = 0;
  double max_abs_log = 0;
  LogFwdFlags flags;
  log_forward_f32_block(&in, &mapped, 1, 1.0, &sign_word, &zero_word,
                        &max_abs_log, &flags);
  EXPECT_EQ(mapped, -149.0f);
  EXPECT_EQ(zero_word, 0u);
  EXPECT_FALSE(flags.has_zeros);
}

// The fused float forward pass (the AVX2/AVX-512 fast path of
// log_forward) on every edge class: denormal ladders, +/-0 in both word
// positions, near-min-normal, FLT_MAX-adjacent, ulp neighbors of 1.
// Generic and native must agree bit-for-bit on mapped values, packed
// sign/zero words, the max|log| reduction, and the OR-ed flags.
TEST(LogForwardF32Block, GenericAndNativeBitIdenticalOnEdgeInputs) {
  std::vector<float> in;
  const float dmin = std::numeric_limits<float>::denorm_min();
  const float nmin = std::numeric_limits<float>::min();
  const float fmax = std::numeric_limits<float>::max();
  // Ulp ladders straddling the denormal/normal boundary, both signs.
  for (int k = -4; k <= 4; ++k) {
    float v = nmin;
    for (int i = 0; i < (k < 0 ? -k : k); ++i)
      v = std::nextafter(v, k < 0 ? 0.0f : 1.0f);
    in.push_back(v);
    in.push_back(-v);
  }
  for (int k = 1; k <= 4; ++k) {
    in.push_back(dmin * static_cast<float>(k));
    in.push_back(-dmin * static_cast<float>(k));
  }
  // Signed zeros scattered so both packed words carry zero bits.
  in.push_back(0.0f);
  in.push_back(-0.0f);
  // FLT_MAX-adjacent and near-1 ulp neighbors.
  for (int k = 0; k <= 4; ++k) {
    float v = fmax;
    for (int i = 0; i < k; ++i) v = std::nextafter(v, 0.0f);
    in.push_back(v);
    in.push_back(-v);
    in.push_back(std::nextafter(1.0f, 2.0f * static_cast<float>(k + 1)));
    in.push_back(std::nextafter(1.0f, 0.5f / static_cast<float>(k + 1)));
  }
  Rng rng(606);
  while (in.size() < 131)  // 2 whole words + a partial tail word
    in.push_back(static_cast<float>(rng.uniform(-1e3, 1e3)));
  in[64] = 0.0f;   // a zero in the second word
  in[130] = -0.0f; // and one in the partial tail

  const std::size_t n = in.size();
  const std::size_t words = (n + 63) / 64;
  for (double scale : {1.0, 1.0 / std::log2(10.0)}) {
    std::vector<float> ma(n), mb(n);
    std::vector<std::uint64_t> sa(words, ~0ull), sb(words, ~0ull);
    std::vector<std::uint64_t> za(words, ~0ull), zb(words, ~0ull);
    double la = 0, lb = 0;
    LogFwdFlags fa, fb;
    {
      ScopedDispatch d(Dispatch::kGeneric);
      log_forward_f32_block(in.data(), ma.data(), n, scale, sa.data(),
                            za.data(), &la, &fa);
    }
    {
      ScopedDispatch d(Dispatch::kNative);
      log_forward_f32_block(in.data(), mb.data(), n, scale, sb.data(),
                            zb.data(), &lb, &fb);
    }
    EXPECT_EQ(0, std::memcmp(ma.data(), mb.data(), n * sizeof(float)));
    EXPECT_EQ(sa, sb);
    EXPECT_EQ(za, zb);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(la),
              std::bit_cast<std::uint64_t>(lb));
    EXPECT_EQ(fa.any_negative, fb.any_negative);
    EXPECT_EQ(fa.has_zeros, fb.has_zeros);
    EXPECT_EQ(fa.non_finite, fb.non_finite);

    // Semantic spot checks on the shared result: zeros marked where
    // planted, bits beyond n clear in the tail word, signs where planted.
    EXPECT_TRUE(fa.has_zeros);
    EXPECT_TRUE(fa.any_negative);
    EXPECT_FALSE(fa.non_finite);
    EXPECT_NE(za[1] & 1u, 0u) << "zero at index 64 not packed";
    EXPECT_NE(za[2] & (1ull << (130 % 64)), 0u)
        << "zero at index 130 not packed";
    EXPECT_EQ(za[words - 1] >> (n % 64), 0u)
        << "tail word has bits set beyond n";
    EXPECT_EQ(sa[words - 1] >> (n % 64), 0u);
  }
}

// exp2 over inputs whose outputs land in the subnormal range: the
// reconstruction path for the smallest magnitudes the transform round
// trips. A batch that flushed denormal outputs would break the smallest
// values' error bound silently.
TEST(LogBatch, Exp2DenormalRangeOutputsAreBitIdentical) {
  std::vector<double> in;
  Rng rng(808);
  for (int i = 0; i < 512; ++i) {
    in.push_back(rng.uniform(-1074.9, -1022.0));  // double-subnormal range
    in.push_back(rng.uniform(-150.0, -126.0));    // float-subnormal logs
  }
  in.push_back(-1074.0);  // exactly denorm_min
  in.push_back(-1074.5);  // below: rounds to 0 or denorm_min
  in.push_back(-1023.0);
  std::vector<double> a(in.size());
  exp2_scaled_batch(in.data(), a.data(), in.size(), 1.0);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(fast_exp2(in[i])))
        << in[i];
  bool saw_subnormal = false;
  for (double v : a)
    if (v != 0.0 && v < std::numeric_limits<double>::min())
      saw_subnormal = true;
  EXPECT_TRUE(saw_subnormal)
      << "no output landed subnormal; the range above regressed";
}

TEST(QuantizePoint, MatchesReferenceQuantizer) {
  // Reference: the historical inline quantizer, std::llround and all.
  auto reference = [](float orig, double pred, double eb,
                      std::int64_t radius) {
    const double v = static_cast<double>(orig);
    const double diff = v - pred;
    const double threshold =
        (static_cast<double>(radius) - 0.5) * 2.0 * eb;
    if (std::abs(diff) < threshold) {
      const std::int64_t q = std::llround(diff / (2.0 * eb));
      const float r = narrow_to<float>(pred + 2.0 * eb * static_cast<double>(q));
      if (std::abs(static_cast<double>(r) - v) <= eb)
        return QuantStep<float>{static_cast<std::uint32_t>(radius + q), r};
    }
    return QuantStep<float>{0, orig};
  };
  Rng rng(99);
  const double eb = 1e-4;
  const std::int64_t radius = 32768;
  const double two_eb = 2.0 * eb;
  const double threshold = (static_cast<double>(radius) - 0.5) * two_eb;
  std::vector<std::pair<float, double>> cases = {
      {0.0f, 0.0}, {-0.0f, 0.0}, {1.0f, 1.0 + eb}, {1.0f, 1.0 - 0.5 * eb},
      {std::numeric_limits<float>::max(), 0.0},
      {std::numeric_limits<float>::denorm_min(), 0.0},
      {1.0f, 1.0 + (static_cast<double>(radius) - 1.0) * two_eb},
      {1.0f, 1.0 + static_cast<double>(radius) * two_eb},
  };
  for (int i = 0; i < 20000; ++i) {
    float v = static_cast<float>(
        (static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) * 4.0);
    double pred = static_cast<double>(v) +
                  (static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) *
                      20.0 * eb;
    cases.emplace_back(v, pred);
  }
  for (auto [v, pred] : cases) {
    auto got = quantize_point<float>(v, pred, eb, two_eb, threshold, radius);
    auto want = reference(v, pred, eb, radius);
    EXPECT_EQ(got.code, want.code) << v << " " << pred;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.recon),
              std::bit_cast<std::uint32_t>(want.recon))
        << v << " " << pred;
  }
}

}  // namespace
}  // namespace kernels
}  // namespace transpwr
