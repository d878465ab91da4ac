#ifndef TRANSPWR_TESTING_CONFORMANCE_H
#define TRANSPWR_TESTING_CONFORMANCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/compressor.h"
#include "testing/generators.h"

namespace transpwr {
namespace testing {

/// Differential round-trip checker over every registered compressor.
///
/// For each (scheme, family, bound, precision) case the harness compresses
/// an adversarial field, decompresses it, and checks the guarantee the
/// scheme actually advertises: the pointwise relative bound for the
/// transformed schemes, ISABELA and FPZIP, the absolute bound for SZ_ABS,
/// the nonzero-point relative bound for the blockwise SZ_PWR baseline, and
/// only finite-output/shape invariants for ZFP_P (approximate by design).
/// Non-finite families must either round-trip NaN/Inf (SZ) or be rejected
/// with a clean transpwr::Error. A separate pass checks degenerate shapes
/// and serial-vs-parallel byte identity of the TPAR archive writer and
/// reader.
struct ConformanceConfig {
  std::uint64_t seed = 20260807;
  std::size_t iters = 1;            ///< repetitions with derived seeds
  std::size_t max_points = 4096;    ///< elements per generated field
  std::vector<Scheme> schemes;      ///< empty => all registered schemes
  std::vector<Family> families;     ///< empty => all families
  std::vector<double> bounds = {1e-2, 1e-3};
  bool check_double = true;         ///< run float64 cases too
  bool check_parallel_identity = true;
  bool check_degenerate_dims = true;
};

struct Violation {
  std::string scheme;
  std::string family;
  std::string kind;    ///< rel_bound | abs_bound | zero_not_exact | ...
  std::string detail;  ///< human-readable specifics incl. replay seed
  double bound = 0;
  std::size_t index = 0;  ///< offending element, when applicable
};

struct ConformanceReport {
  /// The seed the run actually used: TRANSPWR_SEED when set, else the
  /// config seed. Printed by table() so CI logs are replayable.
  std::uint64_t effective_seed = 0;
  std::size_t cases_run = 0;
  std::size_t points_checked = 0;
  std::size_t clean_rejections = 0;  ///< non-finite inputs refused cleanly
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }

  /// Per-scheme / per-kind violation counts plus the first few details.
  std::string table() const;
};

ConformanceReport run_conformance(const ConformanceConfig& config);

}  // namespace testing
}  // namespace transpwr

#endif  // TRANSPWR_TESTING_CONFORMANCE_H
