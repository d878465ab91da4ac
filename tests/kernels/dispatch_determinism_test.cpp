// The kernel dispatch must never change produced bytes: for every codec
// whose hot path has a native variant, compressing under kGeneric and
// kNative yields byte-identical streams, and decoding one stream under
// either dispatch yields byte-identical payloads. This is the conformance
// gate ISSUE PR6 puts on the kernel layer — native kernels are
// restructurings of the same arithmetic, not approximations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/transformed.h"
#include "kernels/dispatch.h"
#include "lossless/blocked_huffman.h"
#include "sz/interp.h"
#include "sz/sz.h"

namespace transpwr {
namespace {

// Field with every edge class the kernels special-case: negatives, exact
// zeros, denormals, huge magnitudes, and smooth structure for the
// predictors to latch onto.
std::vector<float> adversarial_field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  double v = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    v += (static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) * 0.05;
    float f = static_cast<float>(v);
    switch (rng.below(29)) {
      case 0: f = 0.0f; break;
      case 1: f = -0.0f; break;
      case 2: f = std::numeric_limits<float>::denorm_min(); break;
      case 3: f = -std::numeric_limits<float>::denorm_min(); break;
      case 4: f = std::numeric_limits<float>::max() * 0.5f; break;
      case 5: f = -f; break;
      default: break;
    }
    out[i] = f;
  }
  return out;
}

template <typename Compress, typename Decompress>
void expect_dispatch_invariant(Compress&& compress, Decompress&& decompress) {
  std::vector<std::uint8_t> stream_g, stream_n;
  {
    kernels::ScopedDispatch d(kernels::Dispatch::kGeneric);
    stream_g = compress();
  }
  {
    kernels::ScopedDispatch d(kernels::Dispatch::kNative);
    stream_n = compress();
  }
  ASSERT_EQ(stream_g.size(), stream_n.size());
  EXPECT_EQ(0,
            std::memcmp(stream_g.data(), stream_n.data(), stream_g.size()));

  auto out_g = [&] {
    kernels::ScopedDispatch d(kernels::Dispatch::kGeneric);
    return decompress(stream_g);
  }();
  auto out_n = [&] {
    kernels::ScopedDispatch d(kernels::Dispatch::kNative);
    return decompress(stream_g);
  }();
  ASSERT_EQ(out_g.size(), out_n.size());
  EXPECT_EQ(0, std::memcmp(out_g.data(), out_n.data(),
                           out_g.size() * sizeof(out_g[0])));
}

// One SZ stream per dispatch from `dims`, in both modes and both element
// types, each decoded under both dispatches. The decode row sweep runs
// lorenzo_recon_run over each constant-bound segment's interior under
// kNative and the per-point body everywhere under kGeneric; PWR segments
// end at block edges (32 / 12 / 8 for 1-/2-/3-D), so shapes whose nx is
// not a multiple of the edge end a row on a partial segment. The
// adversarial field puts outliers inside the runs.
void expect_sz_invariant(const Dims& dims, std::uint64_t seed) {
  SCOPED_TRACE(dims.to_string());
  const auto dataf = adversarial_field(dims.count(), seed);
  const std::vector<double> datad(dataf.begin(), dataf.end());
  for (sz::Mode mode : {sz::Mode::kAbs, sz::Mode::kPwrBlock}) {
    SCOPED_TRACE(mode == sz::Mode::kAbs ? "abs" : "pwr");
    sz::Params p;
    p.mode = mode;
    p.bound = 1e-3;
    p.threads = 1;
    expect_dispatch_invariant(
        [&] { return sz::compress<float>(dataf, dims, p); },
        [&](const std::vector<std::uint8_t>& s) {
          return sz::decompress<float>(s, nullptr, 1);
        });
    if (mode == sz::Mode::kAbs) p.bound = 1e-6;
    expect_dispatch_invariant(
        [&] { return sz::compress<double>(datad, dims, p); },
        [&](const std::vector<std::uint8_t>& s) {
          return sz::decompress<double>(s, nullptr, 1);
        });
  }
}

TEST(DispatchDeterminism, Sz3D) {
  // Native 3-D kAbs encode runs the wavefront over groups of 4 interior
  // rows when nx >= 4 and the per-point sweep everywhere else. The shape
  // table reaches its edges: one plane (no interior rows), no group, one
  // group, groups with 1-3 remainder rows, and nx below, at and above the
  // group width.
  std::vector<Dims> shapes = {Dims(24, 18, 20)};
  for (std::size_t nz : {1, 2, 3})
    for (std::size_t ny = 1; ny <= 9; ++ny)
      for (std::size_t nx : {1, 3, 4, 5, 20}) shapes.emplace_back(nz, ny, nx);
  for (const Dims& dims : shapes) expect_sz_invariant(dims, 111 + dims.count());
}

TEST(DispatchDeterminism, Sz2D) {
  expect_sz_invariant(Dims(61, 47), 222);
  for (const Dims& dims : {Dims(1, 30), Dims(2, 13), Dims(7, 1), Dims(25, 24)})
    expect_sz_invariant(dims, 222 + dims.count());
}

TEST(DispatchDeterminism, Sz1D) {
  expect_sz_invariant(Dims(3001), 444);
  for (const Dims& dims : {Dims(1), Dims(33), Dims(64)})
    expect_sz_invariant(dims, 444 + dims.count());
}

TEST(DispatchDeterminism, Interp3D) {
  auto data = adversarial_field(17 * 13 * 11, 555);
  Dims dims(17, 13, 11);
  sz_interp::Params p;
  p.bound = 1e-3;
  p.threads = 1;
  expect_dispatch_invariant(
      [&] { return sz_interp::compress<float>(data, dims, p); },
      [&](const std::vector<std::uint8_t>& s) {
        return sz_interp::decompress<float>(s, nullptr, 1);
      });
}

TEST(DispatchDeterminism, TransformedSzFloat) {
  // The full paper pipeline: log map (fast kernel), sz inner, sign bitmap,
  // zero sentinels.
  auto data = adversarial_field(24 * 18, 777);
  Dims dims(24, 18);
  TransformedParams p;
  p.rel_bound = 1e-3;
  p.threads = 1;
  expect_dispatch_invariant(
      [&] {
        return transformed_compress<float>(data, dims, InnerCodec::kSz, p);
      },
      [&](const std::vector<std::uint8_t>& s) {
        return transformed_decompress<float>(s, nullptr, 1);
      });
}

TEST(DispatchDeterminism, BlockedHuffmanPairDecode) {
  // Exercises the pair-table decode directly: skewed symbol distribution
  // (many short codes => most probes resolve two symbols).
  Rng rng(888);
  std::vector<std::uint32_t> symbols(200000);
  for (auto& s : symbols) {
    const std::uint64_t r = rng.below(100);
    s = r < 55 ? 0u : r < 80 ? 1u : r < 92 ? 2u
        : static_cast<std::uint32_t>(rng.below(60000));
  }
  expect_dispatch_invariant(
      [&] { return lossless::blocked_encode(symbols, 60000, 1); },
      [&](const std::vector<std::uint8_t>& s) {
        auto out = lossless::blocked_decode(s, 1);
        EXPECT_EQ(out, symbols);
        return out;
      });
}

}  // namespace
}  // namespace transpwr
