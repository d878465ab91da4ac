// google-benchmark microbenchmarks of the hot kernels: the forward/inverse
// log maps per base (the root cause behind Table III), the SZ
// Lorenzo+quantization pass, the ZFP block pipeline, the entropy
// stages, and the wire body checksums.
//
// Every row runs on one thread and is wall-timed (UseRealTime), so each
// rate is a per-core stage reference. Each kernel that ships a native fork
// (kernels/dispatch.h) has a generic/native row pair: the `native` arg
// selects the dispatch, and the label names it. Run one pair per process
// invocation, repeated, to get alternated generic/native pairs, e.g.
//   bench_micro_kernels --benchmark_filter='BM_SzCompress'
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "core/log_transform.h"
#include "data/generators.h"
#include "kernels/crc32c.h"
#include "kernels/dispatch.h"
#include "lossless/blocked_huffman.h"
#include "lossless/huffman.h"
#include "lossless/lossless.h"
#include "sz/sz.h"
#include "zfp/zfp.h"

namespace {

using namespace transpwr;

const Field<float>& dmd_field() {
  static const Field<float> f =
      gen::nyx_dark_matter_density(Dims(64, 64, 64), 42);
  return f;
}

// The log-mapped field SZ_T hands its inner SZ codec (base 2, br 1e-3),
// with the absolute bound the transform derives for it.
const TransformResult<float>& mapped_field() {
  static const TransformResult<float> tr =
      log_forward<float>(dmd_field().values, 1e-3, 2.0, 1);
  return tr;
}

// Dispatch selected by the row's arg `index` (0 generic, 1 native); the
// row's label names it.
kernels::Dispatch dispatch_arg(benchmark::State& state, int index) {
  const auto d = state.range(index) ? kernels::Dispatch::kNative
                                    : kernels::Dispatch::kGeneric;
  state.SetLabel(kernels::name(d));
  return d;
}

void set_bytes(benchmark::State& state, std::size_t n) {
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_LogForward(benchmark::State& state) {
  const double base = static_cast<double>(state.range(0)) == 3
                          ? 2.718281828459045
                          : static_cast<double>(state.range(0));
  kernels::ScopedDispatch scoped(dispatch_arg(state, 1));
  const auto& f = dmd_field();
  for (auto _ : state) {
    auto r = log_forward<float>(f.values, 1e-3, base, 1);
    benchmark::DoNotOptimize(r.mapped.data());
  }
  set_bytes(state, f.bytes());
}
BENCHMARK(BM_LogForward)
    ->ArgNames({"base", "native"})  // base 3 = e
    ->ArgsProduct({{2, 3, 10}, {0, 1}})
    ->UseRealTime();

void BM_LogInverse(benchmark::State& state) {
  const double base = static_cast<double>(state.range(0)) == 3
                          ? 2.718281828459045
                          : static_cast<double>(state.range(0));
  const auto& f = dmd_field();
  auto tr = log_forward<float>(f.values, 1e-3, base, 1);
  for (auto _ : state) {
    auto out = log_inverse<float>(tr.mapped, tr.negative, base,
                                  tr.zero_threshold, 1);
    benchmark::DoNotOptimize(out.data());
  }
  set_bytes(state, f.bytes());
}
BENCHMARK(BM_LogInverse)->Arg(2)->Arg(3)->Arg(10)->UseRealTime();

// SZ kAbs over the log-mapped 3-D field: the native encode runs the
// wavefront, the native decode the row sweep's interior runs.
void BM_SzCompress(benchmark::State& state) {
  kernels::ScopedDispatch scoped(dispatch_arg(state, 0));
  const auto& tr = mapped_field();
  sz::Params p;
  p.bound = tr.adjusted_abs_bound;
  p.threads = 1;
  for (auto _ : state) {
    auto stream = sz::compress<float>(tr.mapped, dmd_field().dims, p);
    benchmark::DoNotOptimize(stream.data());
  }
  set_bytes(state, dmd_field().bytes());
}
BENCHMARK(BM_SzCompress)->ArgName("native")->Arg(0)->Arg(1)->UseRealTime();

void BM_SzDecompress(benchmark::State& state) {
  kernels::ScopedDispatch scoped(dispatch_arg(state, 0));
  const auto& tr = mapped_field();
  sz::Params p;
  p.bound = tr.adjusted_abs_bound;
  p.threads = 1;
  auto stream = sz::compress<float>(tr.mapped, dmd_field().dims, p);
  for (auto _ : state) {
    auto out = sz::decompress<float>(stream, nullptr, 1);
    benchmark::DoNotOptimize(out.data());
  }
  set_bytes(state, dmd_field().bytes());
}
BENCHMARK(BM_SzDecompress)->ArgName("native")->Arg(0)->Arg(1)->UseRealTime();

// SZ PWR decode of a 2-D field: under native the row sweep's interior runs,
// one per block-edge-aligned segment.
void BM_SzPwr2DDecompress(benchmark::State& state) {
  kernels::ScopedDispatch scoped(dispatch_arg(state, 0));
  static const Field<float> f =
      gen::cesm_temperature(Dims(512, 512), 42);
  sz::Params p;
  p.mode = sz::Mode::kPwrBlock;
  p.bound = 1e-3;
  p.threads = 1;
  auto stream = sz::compress<float>(f.values, f.dims, p);
  for (auto _ : state) {
    auto out = sz::decompress<float>(stream, nullptr, 1);
    benchmark::DoNotOptimize(out.data());
  }
  set_bytes(state, f.bytes());
}
BENCHMARK(BM_SzPwr2DDecompress)
    ->ArgName("native")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime();

void BM_ZfpCompress(benchmark::State& state) {
  const auto& f = dmd_field();
  zfp::Params p;
  p.tolerance = 1e-3;
  for (auto _ : state) {
    auto stream = zfp::compress<float>(f.values, f.dims, p);
    benchmark::DoNotOptimize(stream.data());
  }
  set_bytes(state, f.bytes());
}
BENCHMARK(BM_ZfpCompress)->UseRealTime();

void BM_ZfpDecompress(benchmark::State& state) {
  const auto& f = dmd_field();
  zfp::Params p;
  p.tolerance = 1e-3;
  auto stream = zfp::compress<float>(f.values, f.dims, p);
  for (auto _ : state) {
    auto out = zfp::decompress<float>(stream);
    benchmark::DoNotOptimize(out.data());
  }
  set_bytes(state, f.bytes());
}
BENCHMARK(BM_ZfpDecompress)->UseRealTime();

// SZ-like quantization code stream: codes around the zero bin (32768)
// with spread `sigma`.
std::vector<std::uint32_t> quant_codes(double sigma) {
  Rng rng(1);
  std::vector<std::uint32_t> v(1 << 18);
  for (auto& s : v)
    s = static_cast<std::uint32_t>(std::clamp(
        std::round(rng.normal() * sigma + 32768.0), 0.0, 65535.0));
  return v;
}

void BM_HuffmanEncode(benchmark::State& state) {
  const auto syms = quant_codes(30.0);
  for (auto _ : state) {
    HuffmanCoder coder;
    coder.build_from(syms, 1 << 16);
    BitWriter bw;
    coder.write_table(bw);
    for (auto s : syms) coder.encode(s, bw);
    auto bytes = bw.take();
    benchmark::DoNotOptimize(bytes.data());
  }
  set_bytes(state, syms.size() * 4);
}
BENCHMARK(BM_HuffmanEncode)->UseRealTime();

// Blocked (v2) Huffman decode. The native pair table resolves two symbols
// per probe when both codes fit its 12-bit index, so it pays on narrow
// code streams (sigma 3) and not on wide ones (sigma 30).
void BM_BlockedHuffmanDecode(benchmark::State& state) {
  kernels::ScopedDispatch scoped(dispatch_arg(state, 1));
  const auto syms = quant_codes(static_cast<double>(state.range(0)));
  const auto stream = lossless::blocked_encode(syms, 1 << 16, 1);
  for (auto _ : state) {
    auto out = lossless::blocked_decode(stream, 1);
    benchmark::DoNotOptimize(out.data());
  }
  set_bytes(state, syms.size() * 4);
}
BENCHMARK(BM_BlockedHuffmanDecode)
    ->ArgNames({"sigma", "native"})
    ->ArgsProduct({{3, 30}, {0, 1}})
    ->UseRealTime();

void BM_LosslessLz(benchmark::State& state) {
  const auto& f = dmd_field();
  std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(f.values.data()), f.bytes());
  for (auto _ : state) {
    auto out = lossless::compress(bytes, 1);
    benchmark::DoNotOptimize(out.data());
  }
  set_bytes(state, f.bytes());
}
BENCHMARK(BM_LosslessLz)->UseRealTime();

// Wire body checksums: byte-serial FNV-1a against CRC32C under each
// dispatch, on a warm ROI response (128 KiB) and a whole-chunk-scale
// buffer (4 MiB). The GB counter is a decimal rate (GB/s), like the
// BENCH files.
const std::vector<std::uint8_t>& checksum_input(std::size_t n) {
  static std::vector<std::uint8_t> buf;
  if (buf.size() < n) {
    Rng rng(9);
    buf.resize(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  }
  return buf;
}

void set_gbs(benchmark::State& state, std::size_t n) {
  set_bytes(state, n);
  state.counters["GB"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_Fnv1a64(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::span<const std::uint8_t> bytes(checksum_input(n).data(), n);
  for (auto _ : state) benchmark::DoNotOptimize(fnv1a64(bytes));
  set_gbs(state, n);
}
BENCHMARK(BM_Fnv1a64)->Arg(128 << 10)->Arg(4 << 20)->UseRealTime();

void BM_Crc32c(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  kernels::ScopedDispatch scoped(dispatch_arg(state, 1));
  std::span<const std::uint8_t> bytes(checksum_input(n).data(), n);
  for (auto _ : state) benchmark::DoNotOptimize(kernels::crc32c(bytes));
  set_gbs(state, n);
}
BENCHMARK(BM_Crc32c)
    ->ArgNames({"bytes", "native"})
    ->Args({128 << 10, 0})
    ->Args({4 << 20, 0})
    ->Args({128 << 10, 1})
    ->Args({4 << 20, 1})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
