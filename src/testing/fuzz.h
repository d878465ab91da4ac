#ifndef TRANSPWR_TESTING_FUZZ_H
#define TRANSPWR_TESTING_FUZZ_H

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace transpwr {
namespace testing {

/// Decoder-robustness fuzzing: every decoder must survive arbitrary bytes.
/// A target is a named decode entry point plus a seed corpus of valid
/// streams; the engine mutates corpus items (truncation, bit flips, header
/// rewrites, length-field attacks, splices) and feeds them back. The only
/// acceptable failure is a clean `transpwr::Error`; anything else — a
/// crash, a foreign exception, a bad_alloc that escaped the decode guard —
/// is a finding.
struct FuzzConfig {
  std::uint64_t seed = 20260807;
  std::size_t iters_per_target = 2000;
  std::size_t max_decode_bytes = 4u << 20;  ///< decode-guard ceiling
  std::vector<std::string> targets;         ///< empty => all targets
};

struct FuzzFinding {
  std::string target;
  std::string what;  ///< exception type/message, or "decode succeeded" notes
  std::size_t iter = 0;
  std::vector<std::uint8_t> stream;  ///< the offending input, for replay
};

struct FuzzReport {
  std::size_t targets_run = 0;
  std::size_t decodes = 0;
  std::size_t clean_errors = 0;   ///< decoder threw transpwr::Error
  std::size_t clean_decodes = 0;  ///< mutation was benign, decode succeeded
  std::vector<FuzzFinding> findings;

  bool ok() const { return findings.empty(); }
  std::string summary() const;
};

struct FuzzTarget {
  std::string name;
  std::vector<std::vector<std::uint8_t>> corpus;
  std::function<void(std::span<const std::uint8_t>)> decode;
};

/// One target per registered scheme and precision, plus the lossless
/// substrate (lossless container, lz77, rle) and the TPAR archive.
std::vector<FuzzTarget> default_fuzz_targets(std::uint64_t seed);

/// One deterministic mutation of `base` (never returns `base` unchanged
/// unless the chosen mutation happens to be the identity on it).
std::vector<std::uint8_t> mutate_stream(std::span<const std::uint8_t> base,
                                        Rng& rng);

FuzzReport run_fuzz(const FuzzConfig& config);

}  // namespace testing
}  // namespace transpwr

#endif  // TRANSPWR_TESTING_FUZZ_H
