// Runtime selection between a kernel's two implementations: kGeneric
// (straight reference loops) and kNative (SIMD / latency-hiding variants).
// Only the kernels whose native form measures a win at t=1 on some inputs
// ship one: the f32 log-forward block, the SZ 3-D wavefront encode, the
// interior runs of the SZ decode row sweep, the Huffman pair-table decode
// and CRC32C (docs/tuning.md has the ratios, including the inputs where a
// fork does not win). Everything else has a single body. Both forms run the same per-element arithmetic in an order
// that respects every dependency, so the choice NEVER changes produced
// bytes — only throughput. tests/kernels enforces that.
#ifndef TRANSPWR_KERNELS_DISPATCH_H_
#define TRANSPWR_KERNELS_DISPATCH_H_

namespace transpwr {
namespace kernels {

enum class Dispatch { kGeneric = 0, kNative = 1 };

// Process-wide choice: TRANSPWR_KERNELS=generic|native (default native;
// unrecognized values warn once and fall back to the default). The env var
// is read once, on first use.
Dispatch active();

const char* name(Dispatch d);

// Test-only override, takes precedence over the environment.
void set_for_testing(Dispatch d);
void clear_for_testing();

class ScopedDispatch {
 public:
  explicit ScopedDispatch(Dispatch d) { set_for_testing(d); }
  ~ScopedDispatch() { clear_for_testing(); }
  ScopedDispatch(const ScopedDispatch&) = delete;
  ScopedDispatch& operator=(const ScopedDispatch&) = delete;
};

}  // namespace kernels
}  // namespace transpwr

#endif  // TRANSPWR_KERNELS_DISPATCH_H_
