#include "data/generators.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace transpwr {
namespace gen {
namespace {

// Hash a lattice point + seed to a deterministic value in [-1, 1].
double hash_to_unit(std::uint64_t seed, std::int64_t x, std::int64_t y,
                    std::int64_t z) {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<std::uint64_t>(y) * 0xc2b2ae3d27d4eb4fULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= static_cast<std::uint64_t>(z) * 0x165667b19e3779f9ULL;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;  // [-1, 1)
}

double smoothstep(double t) { return t * t * (3.0 - 2.0 * t); }

}  // namespace

FractalNoise::FractalNoise(std::uint64_t seed, int octaves, double base_scale)
    : seed_(seed), octaves_(octaves), base_scale_(base_scale) {}

double FractalNoise::lattice(std::int64_t xi, std::int64_t yi,
                             std::int64_t zi) const {
  return hash_to_unit(seed_, xi, yi, zi);
}

double FractalNoise::value_noise(double x, double y, double z) const {
  auto x0 = static_cast<std::int64_t>(std::floor(x));
  auto y0 = static_cast<std::int64_t>(std::floor(y));
  auto z0 = static_cast<std::int64_t>(std::floor(z));
  double tx = smoothstep(x - static_cast<double>(x0));
  double ty = smoothstep(y - static_cast<double>(y0));
  double tz = smoothstep(z - static_cast<double>(z0));

  double acc = 0;
  for (int dz = 0; dz <= 1; ++dz)
    for (int dy = 0; dy <= 1; ++dy)
      for (int dx = 0; dx <= 1; ++dx) {
        double w = (dx ? tx : 1 - tx) * (dy ? ty : 1 - ty) * (dz ? tz : 1 - tz);
        acc += w * lattice(x0 + dx, y0 + dy, z0 + dz);
      }
  return acc;
}

double FractalNoise::sample3(double x, double y, double z) const {
  double sum = 0, amp = 1, norm = 0, freq = base_scale_;
  for (int o = 0; o < octaves_; ++o) {
    // Offset octaves so lattice artifacts do not align.
    double off = 13.7 * o;
    sum += amp * value_noise(x * freq + off, y * freq + off, z * freq + off);
    norm += amp;
    amp *= 0.55;
    freq *= 2.0;
  }
  return sum / norm;
}

Field<float> nyx_dark_matter_density(Dims dims, std::uint64_t seed) {
  dims.validate();
  Field<float> f("dark_matter_density", dims);
  FractalNoise noise(seed, 6, 4.0 / static_cast<double>(dims[dims.nd - 1]));
  FractalNoise clump(seed ^ 0x5eedULL, 3,
                     16.0 / static_cast<double>(dims[dims.nd - 1]));

  const std::size_t nz = dims.nd >= 1 ? dims[0] : 1;
  const std::size_t ny = dims.nd >= 2 ? dims[1] : 1;
  const std::size_t nx = dims.nd >= 3 ? dims[2] : 1;
  std::size_t idx = 0;
  // Lognormal-like density: exp of fBm, sharpened so ~84% of values fall in
  // [0, 1] and the clumped tail reaches ~1.4e4 (the field's documented
  // distribution in the paper, Sec. VI-B).
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        double xf = static_cast<double>(x), yf = static_cast<double>(y),
               zf = static_cast<double>(z);
        double g = noise.sample3(xf, yf, zf);       // ~[-0.8, 0.8]
        double c = clump.sample3(xf, yf, zf);       // small-scale clumps
        double t = 2.2 * g + 1.4 * std::max(0.0, c) * std::max(0.0, g);
        double rho = std::exp(3.3 * t - 1.2);
        if (rho < 2.5e-3) rho = 0.0;  // exact zeros in deep voids
        f.values[idx] = static_cast<float>(std::min(rho, 1.4e4));
      }
  return f;
}

Field<float> nyx_velocity(Dims dims, std::uint64_t seed) {
  dims.validate();
  Field<float> f("velocity_x", dims);
  FractalNoise noise(seed, 5, 3.0 / static_cast<double>(dims[dims.nd - 1]));

  const std::size_t nz = dims.nd >= 1 ? dims[0] : 1;
  const std::size_t ny = dims.nd >= 2 ? dims[1] : 1;
  const std::size_t nx = dims.nd >= 3 ? dims[2] : 1;
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        double g = noise.sample3(static_cast<double>(x),
                                 static_cast<double>(y),
                                 static_cast<double>(z));
        f.values[idx] = static_cast<float>(g * 1.0e7);
      }
  return f;
}

Field<float> hacc_velocity(std::size_t num_particles, std::uint64_t seed) {
  Field<float> f("vx", Dims(num_particles));
  Rng rng(seed);
  std::size_t i = 0;
  while (i < num_particles) {
    // Each halo contributes a bulk flow plus internal dispersion; halo sizes
    // are power-law distributed, and particle order mixes halos, giving the
    // sharp point-to-point variation the paper attributes to HACC.
    std::size_t halo = 4 + static_cast<std::size_t>(
                               std::pow(rng.uniform(), -0.8));
    halo = std::min(halo, num_particles - i);
    halo = std::min<std::size_t>(halo, 4096);
    double bulk = rng.normal() * 500.0;             // km/s
    double sigma = 30.0 + 470.0 * rng.uniform();    // per-halo dispersion
    // Velocities are correlated within a halo (particles are stored in
    // locality order), with hard jumps at halo boundaries — smooth runs
    // interrupted by spikes, HACC's signature.
    double ar = rng.normal();
    for (std::size_t j = 0; j < halo; ++j, ++i) {
      ar = 0.94 * ar + 0.342 * rng.normal();
      f.values[i] = static_cast<float>(bulk + sigma * ar);
    }
  }
  return f;
}

Field<float> cesm_cloud_fraction(Dims dims, std::uint64_t seed) {
  dims.validate();
  Field<float> f("CLDHGH", dims);
  FractalNoise noise(seed, 6, 6.0 / static_cast<double>(dims[dims.nd - 1]));
  const std::size_t ny = dims[0];
  const std::size_t nx = dims.nd >= 2 ? dims[1] : 1;
  std::size_t idx = 0;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x, ++idx) {
      double g = noise.sample2(static_cast<double>(x),
                               static_cast<double>(y));
      // Shift so a substantial clear-sky area clamps to exactly zero.
      double v = 1.4 * g + 0.15;
      v = std::clamp(v, 0.0, 1.0);
      f.values[idx] = static_cast<float>(v);
    }
  return f;
}

Field<float> cesm_flux(Dims dims, std::uint64_t seed) {
  dims.validate();
  Field<float> f("FLUT", dims);
  FractalNoise noise(seed, 5, 5.0 / static_cast<double>(dims[dims.nd - 1]));
  const std::size_t ny = dims[0];
  const std::size_t nx = dims.nd >= 2 ? dims[1] : 1;
  std::size_t idx = 0;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x, ++idx) {
      double g = noise.sample2(static_cast<double>(x),
                               static_cast<double>(y));
      f.values[idx] = static_cast<float>(g * 240.0 + 60.0 * g * g);
    }
  return f;
}

Field<float> cesm_temperature(Dims dims, std::uint64_t seed) {
  dims.validate();
  Field<float> f("TS", dims);
  FractalNoise noise(seed, 6, 5.0 / static_cast<double>(dims[dims.nd - 1]));
  FractalNoise land(seed ^ 0x7157ULL, 3,
                    2.5 / static_cast<double>(dims[dims.nd - 1]));
  const std::size_t ny = dims[0];
  const std::size_t nx = dims.nd >= 2 ? dims[1] : 1;
  std::size_t idx = 0;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x, ++idx) {
      // Meridional gradient + land/sea contrast + weather noise.
      double lat = static_cast<double>(y) / static_cast<double>(ny) - 0.5;
      double base = 288.0 - 60.0 * lat * lat * 4.0;
      double continent =
          land.sample2(static_cast<double>(x), static_cast<double>(y)) > 0.15
              ? 12.0
              : 0.0;
      double g = noise.sample2(static_cast<double>(x),
                               static_cast<double>(y));
      f.values[idx] = static_cast<float>(base + continent + 6.0 * g);
    }
  return f;
}

Field<float> cesm_precipitation(Dims dims, std::uint64_t seed) {
  dims.validate();
  Field<float> f("PRECT", dims);
  FractalNoise noise(seed, 6, 7.0 / static_cast<double>(dims[dims.nd - 1]));
  const std::size_t ny = dims[0];
  const std::size_t nx = dims.nd >= 2 ? dims[1] : 1;
  std::size_t idx = 0;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x, ++idx) {
      double g = noise.sample2(static_cast<double>(x),
                               static_cast<double>(y));
      // Rain only where convection is active; exponential intensity tail.
      double v = g > 0.25 ? std::expm1(6.0 * (g - 0.25)) * 1e-8 : 0.0;
      f.values[idx] = static_cast<float>(v);
    }
  return f;
}

Field<float> cesm_wind(Dims dims, std::uint64_t seed) {
  dims.validate();
  Field<float> f("U850", dims);
  FractalNoise noise(seed, 5, 4.0 / static_cast<double>(dims[dims.nd - 1]));
  const std::size_t ny = dims[0];
  const std::size_t nx = dims.nd >= 2 ? dims[1] : 1;
  std::size_t idx = 0;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x, ++idx) {
      // Jet bands: strong westerlies at mid-latitudes, easterlies in the
      // tropics, plus eddies.
      double lat = static_cast<double>(y) / static_cast<double>(ny) - 0.5;
      double jet = 25.0 * std::sin(6.28318 * lat * 2.0);
      double g = noise.sample2(static_cast<double>(x),
                               static_cast<double>(y));
      f.values[idx] = static_cast<float>(jet + 9.0 * g);
    }
  return f;
}

Field<float> hurricane_wind(Dims dims, std::uint64_t seed) {
  dims.validate();
  Field<float> f("Uf48", dims);
  FractalNoise noise(seed, 4, 4.0 / static_cast<double>(dims[dims.nd - 1]));
  const std::size_t nz = dims[0];
  const std::size_t ny = dims.nd >= 2 ? dims[1] : 1;
  const std::size_t nx = dims.nd >= 3 ? dims[2] : 1;
  double cy = static_cast<double>(ny) / 2, cx = static_cast<double>(nx) / 2;
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        // Rankine-like vortex (tangential wind peaks at radius r0 and decays
        // outward) plus fractal turbulence; winds weaken with altitude.
        double dy = static_cast<double>(y) - cy;
        double dx = static_cast<double>(x) - cx;
        double r = std::sqrt(dx * dx + dy * dy) + 1e-9;
        double r0 = 0.12 * static_cast<double>(nx);
        double vmax = 70.0 * (1.0 - 0.5 * static_cast<double>(z) /
                                        static_cast<double>(nz));
        double vt = r < r0 ? vmax * r / r0 : vmax * r0 / r;
        double u = -vt * dy / r;  // x-component of tangential flow
        double g = noise.sample3(static_cast<double>(x),
                                 static_cast<double>(y),
                                 static_cast<double>(z));
        f.values[idx] = static_cast<float>(u + 8.0 * g);
      }
  return f;
}

Field<float> hurricane_cloud(Dims dims, std::uint64_t seed) {
  dims.validate();
  Field<float> f("CLOUDf48", dims);
  FractalNoise noise(seed, 5, 5.0 / static_cast<double>(dims[dims.nd - 1]));
  const std::size_t nz = dims[0];
  const std::size_t ny = dims.nd >= 2 ? dims[1] : 1;
  const std::size_t nx = dims.nd >= 3 ? dims[2] : 1;
  double cy = static_cast<double>(ny) / 2, cx = static_cast<double>(nx) / 2;
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        double dy = static_cast<double>(y) - cy;
        double dx = static_cast<double>(x) - cx;
        double r = std::sqrt(dx * dx + dy * dy);
        double band = std::exp(-std::pow(
            (r - 0.2 * static_cast<double>(nx)) /
                (0.1 * static_cast<double>(nx)),
            2.0));
        double g = noise.sample3(static_cast<double>(x),
                                 static_cast<double>(y),
                                 static_cast<double>(z));
        double v = band * (0.5 + 0.5 * g);
        v = v < 0.02 ? 0.0 : (v - 0.02) * 2.1e-3;  // kg/kg scale, exact zeros
        f.values[idx] = static_cast<float>(v);
      }
  return f;
}

namespace {

struct BundleDims {
  std::size_t hacc_n;
  Dims cesm, nyx, hurricane;
};

BundleDims dims_for(Scale s) {
  switch (s) {
    case Scale::kTiny:
      return {1 << 14, Dims(64, 128), Dims(32, 32, 32), Dims(16, 48, 48)};
    case Scale::kSmall:
      return {1 << 18, Dims(225, 450), Dims(64, 64, 64), Dims(25, 125, 125)};
    case Scale::kMedium:
    default:
      return {1 << 21, Dims(450, 900), Dims(128, 128, 128),
              Dims(50, 250, 250)};
  }
}

}  // namespace

std::vector<Field<float>> hacc_bundle(Scale s, std::uint64_t seed) {
  auto d = dims_for(s);
  std::vector<Field<float>> v;
  const char* names[3] = {"vx", "vy", "vz"};
  for (int i = 0; i < 3; ++i) {
    auto f = hacc_velocity(d.hacc_n, seed + static_cast<std::uint64_t>(i));
    f.name = names[i];
    v.push_back(std::move(f));
  }
  return v;
}

std::vector<Field<float>> cesm_bundle(Scale s, std::uint64_t seed) {
  auto d = dims_for(s);
  std::vector<Field<float>> v;
  v.push_back(cesm_cloud_fraction(d.cesm, seed));
  auto low = cesm_cloud_fraction(d.cesm, seed + 1);
  low.name = "CLDLOW";
  v.push_back(std::move(low));
  v.push_back(cesm_flux(d.cesm, seed + 2));
  auto f2 = cesm_flux(d.cesm, seed + 3);
  f2.name = "FSNTOA";
  v.push_back(std::move(f2));
  v.push_back(cesm_temperature(d.cesm, seed + 4));
  v.push_back(cesm_precipitation(d.cesm, seed + 5));
  v.push_back(cesm_wind(d.cesm, seed + 6));
  auto v850 = cesm_wind(d.cesm, seed + 7);
  v850.name = "V850";
  v.push_back(std::move(v850));
  return v;
}

std::vector<Field<float>> nyx_bundle(Scale s, std::uint64_t seed) {
  auto d = dims_for(s);
  std::vector<Field<float>> v;
  v.push_back(nyx_dark_matter_density(d.nyx, seed));
  v.push_back(nyx_velocity(d.nyx, seed + 1));
  auto vy = nyx_velocity(d.nyx, seed + 2);
  vy.name = "velocity_y";
  v.push_back(std::move(vy));
  auto temp = nyx_dark_matter_density(d.nyx, seed + 3);
  temp.name = "temperature";
  // Temperature-like: strictly positive, narrower dynamic range.
  for (auto& x : temp.values)
    x = 1e3f + x * 50.0f + 1.0f;
  v.push_back(std::move(temp));
  return v;
}

std::vector<Field<float>> hurricane_bundle(Scale s, std::uint64_t seed) {
  auto d = dims_for(s);
  std::vector<Field<float>> v;
  v.push_back(hurricane_wind(d.hurricane, seed));
  auto vf = hurricane_wind(d.hurricane, seed + 1);
  vf.name = "Vf48";
  v.push_back(std::move(vf));
  v.push_back(hurricane_cloud(d.hurricane, seed + 2));
  return v;
}

}  // namespace gen
}  // namespace transpwr
