#!/usr/bin/env bash
# Tier-1 verification flow (see ROADMAP.md). Since the kernel layer ships
# dispatch-selected variants whose streams must be identical in every build
# flavor, tier-1 builds and tests BOTH TRANSPWR_NATIVE configurations, then
# runs the decoder-robustness fuzz targets under ASan+UBSan with the native
# kernels forced on.
#
# Usage: tools/ci/tier1.sh [build-root]   (default: ci-build under the repo)
set -euo pipefail

repo="$(cd "$(dirname "$0")/../.." && pwd)"
root="${1:-$repo/ci-build}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1"; shift
  local dir="$root/$name"
  echo "=== tier-1 [$name]: configure + build + ctest ==="
  cmake -B "$dir" -S "$repo" "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# Both dispatch build flavors: the portable baseline every artifact ships
# as, and the host-tuned build the native kernels are written for. The
# kernels ctest label inside each run pins generic-vs-native bit identity.
# Both build with -Werror: the tree compiles warning-free under
# -Wall -Wextra, and a new warning fails tier-1 instead of piling up.
run_config baseline -DCMAKE_CXX_FLAGS=-Werror

# The byte pins again with the reference dispatch chosen by the process
# environment: every Scheme's bytes, the golden v1/v2 streams and the
# thread-count identity must hold for kGeneric as a process setting, not
# only under the in-process overrides of the kernels label.
echo "=== tier-1 [baseline]: byte pins, TRANSPWR_KERNELS=generic ==="
for t in test_scheme_pins test_golden_v1 test_golden_v2 \
  test_thread_determinism; do
  TRANSPWR_KERNELS=generic "$root/baseline/tests/$t"
done

run_config native -DTRANSPWR_NATIVE=ON -DCMAKE_CXX_FLAGS=-Werror

# ASan+UBSan fuzz soak against the native kernels: every decoder fed
# mutated streams with the fast paths (pair-table Huffman, wavefront
# Lorenzo encode, the decode row sweep's interior runs) active. Iteration
# count overridable for quick local runs.
echo "=== tier-1 [asan-ubsan]: fuzz soak, native kernels ==="
asan="$root/asan-ubsan"
iters="${TRANSPWR_CI_FUZZ_ITERS:-10000}"
cmake -B "$asan" -S "$repo" -DTRANSPWR_SANITIZE=address,undefined
cmake --build "$asan" --target fuzz_decode -j "$jobs"
TRANSPWR_KERNELS=native "$asan/tools/conformance/fuzz_decode" --iters "$iters"

# Archive-cache smoke under the same sanitizers: the mmap-backed reader,
# lazy per-chunk verification, and the shared decoded-chunk LRU cache with
# ASan armed. The concurrent-reader hammer test doubles as a
# use-after-free probe on evicted-but-still-referenced cache entries (the
# tsan ctest label marks the same tests for -DTRANSPWR_SANITIZE=thread).
echo "=== tier-1 [asan-ubsan]: archive cache smoke ==="
cmake --build "$asan" --target test_chunk_cache test_archive -j "$jobs"
"$asan/tests/test_chunk_cache"
"$asan/tests/test_archive"

# Serve loopback smoke under the same sanitizers: the TPRQ1 and HTTP
# request parsers and codecs, then a real Server on ephemeral loopback
# ports with concurrent TPRQ1 clients, every HTTP route, malformed-frame
# handling, and the graceful drain — the whole serve surface (accept
# loops, connections as pool tasks, shared registry handles, wake-pipe
# shutdown) with ASan+UBSan armed. The tsan ctest label marks the
# loopback test for a -DTRANSPWR_SANITIZE=thread build.
echo "=== tier-1 [asan-ubsan]: serve loopback smoke ==="
cmake --build "$asan" \
  --target test_serve_loopback test_net_protocol test_net_http -j "$jobs"
"$asan/tests/test_net_protocol"
"$asan/tests/test_net_http"
"$asan/tests/test_serve_loopback"

# Query smoke under the same sanitizers: compressed-domain analytics over
# TPAR v2 summary blocks — the differential query-vs-scan suite plus the
# footer bit-flip / truncation / resealed-checksum corruption cases, so
# every summary-parsing and chunk-pruning path runs with ASan+UBSan armed.
echo "=== tier-1 [asan-ubsan]: query smoke ==="
cmake --build "$asan" --target test_query -j "$jobs"
"$asan/tests/test_query"

# Hunter smoke under the same sanitizers: a bounded sweep of the
# adversarial bound-violation hunter (fixed seed, every scheme x edge
# family) with the native kernels on, so guarantee-surface arithmetic runs
# once per CI with UB detection armed. The unsanitized smoke already ran
# twice above via `ctest` (label: hunter). The deep soak is
# tools/ci/hunter_soak.sh.
echo "=== tier-1 [asan-ubsan]: hunter smoke, native kernels ==="
cmake --build "$asan" --target hunter -j "$jobs"
TRANSPWR_KERNELS=native "$asan/tools/hunter/hunter" \
  --max-points 256 --bound 1e-2 --bound 1e-4 --bound 2.5e-5

# Codec dispatch and CLI smoke under the same sanitizers: every scheme
# through the one compress/decompress switch of `Compressor` (round trips,
# spans and byte counters), and the CLI end to end, including the refusal
# of retired TSR1 series containers.
echo "=== tier-1 [asan-ubsan]: registry + cli smoke ==="
cmake --build "$asan" --target test_registry test_cli -j "$jobs"
"$asan/tests/test_registry"
"$asan/tests/test_cli"

# Baseline codec smoke under the same sanitizers: each codec decoder
# refuses every header mode byte its writer never emits (including the
# SZ-interp linear fit byte), the v1 goldens decode the kept compat paths
# (the SZ hybrid predictor among them), the transform container runs its
# in-place inverse (encoder-side reconstruction and decode), the scheme
# pins check every Scheme's bytes plus those refusals end to end, and the
# dispatch-determinism suite runs both dispatches' encode and decode sweeps
# (the interior-run kernel and its outlier-stream checks among them).
echo "=== tier-1 [asan-ubsan]: baseline codec + scheme pins smoke ==="
cmake --build "$asan" \
  --target test_zfp test_fpzip test_isabela test_sz test_sz_interp \
  test_transformed test_golden_v1 test_scheme_pins test_dispatch_determinism \
  -j "$jobs"
"$asan/tests/test_zfp"
"$asan/tests/test_fpzip"
"$asan/tests/test_isabela"
"$asan/tests/test_sz"
"$asan/tests/test_sz_interp"
"$asan/tests/test_transformed"
"$asan/tests/test_golden_v1"
"$asan/tests/test_scheme_pins"
"$asan/tests/test_dispatch_determinism"

echo "tier-1: all configurations green"
