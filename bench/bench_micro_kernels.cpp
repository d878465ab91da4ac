// google-benchmark microbenchmarks of the hot kernels: the forward/inverse
// log maps per base (the root cause behind Table III), the SZ
// Lorenzo+quantization pass, the ZFP block pipeline, the entropy
// stages, and the wire body checksums.
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

void BM_LogForward(benchmark::State& state) {
  const double base = static_cast<double>(state.range(0)) == 3
                          ? 2.718281828459045
                          : static_cast<double>(state.range(0));
  const auto& f = dmd_field();
  for (auto _ : state) {
    auto r = log_forward<float>(f.values, 1e-3, base, 1);
    benchmark::DoNotOptimize(r.mapped.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
// Single-threaded and wall-timed, so the rate is a per-core stage
// reference.
BENCHMARK(BM_LogForward)->Arg(2)->Arg(3)->Arg(10)->UseRealTime();  // 3 = e

void BM_LogInverse(benchmark::State& state) {
  const double base = static_cast<double>(state.range(0)) == 3
                          ? 2.718281828459045
                          : static_cast<double>(state.range(0));
  const auto& f = dmd_field();
  auto tr = log_forward<float>(f.values, 1e-3, base);
  for (auto _ : state) {
    auto out = log_inverse<float>(tr.mapped, tr.negative, base,
                                  tr.zero_threshold, 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_LogInverse)->Arg(2)->Arg(3)->Arg(10)->UseRealTime();

void BM_SzCompress(benchmark::State& state) {
  const auto& f = dmd_field();
  sz::Params p;
  p.bound = 1e-3;
  for (auto _ : state) {
    auto stream = sz::compress<float>(f.values, f.dims, p);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_SzCompress);

void BM_SzDecompress(benchmark::State& state) {
  const auto& f = dmd_field();
  sz::Params p;
  p.bound = 1e-3;
  auto stream = sz::compress<float>(f.values, f.dims, p);
  for (auto _ : state) {
    auto out = sz::decompress<float>(stream);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_SzDecompress);

void BM_ZfpCompress(benchmark::State& state) {
  const auto& f = dmd_field();
  zfp::Params p;
  p.tolerance = 1e-3;
  for (auto _ : state) {
    auto stream = zfp::compress<float>(f.values, f.dims, p);
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_ZfpCompress);

void BM_ZfpDecompress(benchmark::State& state) {
  const auto& f = dmd_field();
  zfp::Params p;
  p.tolerance = 1e-3;
  auto stream = zfp::compress<float>(f.values, f.dims, p);
  for (auto _ : state) {
    auto out = zfp::decompress<float>(stream);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_ZfpDecompress);

void BM_HuffmanEncode(benchmark::State& state) {
  // SZ-like quantization code stream.
  Rng rng(1);
  std::vector<std::uint32_t> syms(1 << 18);
  for (auto& s : syms)
    s = static_cast<std::uint32_t>(
        std::clamp(rng.normal() * 30.0 + 32768.0, 0.0, 65535.0));
  for (auto _ : state) {
    HuffmanCoder coder;
    coder.build_from(syms, 1 << 16);
    BitWriter bw;
    coder.write_table(bw);
    for (auto s : syms) coder.encode(s, bw);
    auto bytes = bw.take();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(syms.size() * 4));
}
BENCHMARK(BM_HuffmanEncode);

void BM_LosslessLz(benchmark::State& state) {
  const auto& f = dmd_field();
  std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(f.values.data()), f.bytes());
  for (auto _ : state) {
    auto out = lossless::compress(bytes);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_LosslessLz);

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
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
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
BENCHMARK(BM_Fnv1a64)->Arg(128 << 10)->Arg(4 << 20);

void BM_Crc32c(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = state.range(1) ? kernels::Dispatch::kNative
                                : kernels::Dispatch::kGeneric;
  kernels::ScopedDispatch scoped(d);
  std::span<const std::uint8_t> bytes(checksum_input(n).data(), n);
  for (auto _ : state) benchmark::DoNotOptimize(kernels::crc32c(bytes));
  set_gbs(state, n);
  state.SetLabel(kernels::name(d));
}
BENCHMARK(BM_Crc32c)
    ->ArgNames({"bytes", "native"})
    ->Args({128 << 10, 0})
    ->Args({4 << 20, 0})
    ->Args({128 << 10, 1})
    ->Args({4 << 20, 1});

}  // namespace

BENCHMARK_MAIN();
