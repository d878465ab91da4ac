#ifndef TRANSPWR_DATA_GENERATORS_H
#define TRANSPWR_DATA_GENERATORS_H

#include <cstdint>
#include <vector>

#include "data/field.h"

namespace transpwr {

/// Synthetic stand-ins for the paper's application datasets (HACC, CESM-ATM,
/// NYX, Hurricane ISABEL). Each generator is deterministic in its seed and
/// reproduces the statistical features that matter for pointwise-relative
/// compression: value range, sign structure, heavy tails, exact zeros, and
/// spatial smoothness. See DESIGN.md "Substitutions".
namespace gen {

/// Multi-octave lattice value noise in [-1, 1], the smoothness substrate for
/// the 2-D/3-D generators.
class FractalNoise {
 public:
  FractalNoise(std::uint64_t seed, int octaves, double base_scale);

  double sample3(double x, double y, double z) const;
  double sample2(double x, double y) const { return sample3(x, y, 0.37); }

 private:
  double lattice(std::int64_t xi, std::int64_t yi, std::int64_t zi) const;
  double value_noise(double x, double y, double z) const;

  std::uint64_t seed_;
  int octaves_;
  double base_scale_;
};

/// NYX-like dark matter density: strictly non-negative, ~84% of the mass in
/// [0, 1], heavy tail up to ~1.4e4, small fraction of exact zeros.
Field<float> nyx_dark_matter_density(Dims dims, std::uint64_t seed);

/// NYX-like velocity component: smooth, signed, magnitudes up to ~1e7.
Field<float> nyx_velocity(Dims dims, std::uint64_t seed);

/// HACC-like particle velocity component: 1-D in particle order, clustered
/// bulk flows + per-cluster dispersion; sharply varying (hard to compress).
Field<float> hacc_velocity(std::size_t num_particles, std::uint64_t seed);

/// CESM-ATM-like 2-D field (e.g. cloud fraction): values in [0, 1] with
/// clamped exact-zero regions; very smooth.
Field<float> cesm_cloud_fraction(Dims dims, std::uint64_t seed);

/// CESM-ATM-like 2-D signed anomaly field (e.g. heat flux).
Field<float> cesm_flux(Dims dims, std::uint64_t seed);

/// CESM-ATM-like 2-D surface temperature (K): narrow positive range with
/// sharp land/sea-like fronts.
Field<float> cesm_temperature(Dims dims, std::uint64_t seed);

/// CESM-ATM-like 2-D precipitation rate: non-negative, heavy-tailed, mostly
/// zero — the hardest pointwise-relative case in the bundle.
Field<float> cesm_precipitation(Dims dims, std::uint64_t seed);

/// CESM-ATM-like 2-D zonal wind (m/s): signed with jet-stream bands.
Field<float> cesm_wind(Dims dims, std::uint64_t seed);

/// Hurricane-ISABEL-like 3-D wind component: signed vortex flow + noise.
Field<float> hurricane_wind(Dims dims, std::uint64_t seed);

/// Hurricane-ISABEL-like 3-D cloud moisture: non-negative with wide dynamic
/// range and many exact zeros.
Field<float> hurricane_cloud(Dims dims, std::uint64_t seed);

/// Scale knob for the four dataset bundles below.
enum class Scale { kTiny, kSmall, kMedium };

/// A bundle mirrors one application in the paper's Table I: several fields
/// sharing an application-typical shape.
std::vector<Field<float>> hacc_bundle(Scale s, std::uint64_t seed);
std::vector<Field<float>> cesm_bundle(Scale s, std::uint64_t seed);
std::vector<Field<float>> nyx_bundle(Scale s, std::uint64_t seed);
std::vector<Field<float>> hurricane_bundle(Scale s, std::uint64_t seed);

}  // namespace gen
}  // namespace transpwr

#endif  // TRANSPWR_DATA_GENERATORS_H
