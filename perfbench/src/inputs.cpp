// Seeded input generation. Generating the inputs is the benchmark's own
// work, not the program's: it is never inside a timed interval or set-up.
//
// The values follow the library's NYX-like generators
// (gen::nyx_dark_matter_density / gen::nyx_velocity): the same formulas
// over gen::FractalNoise, evaluated here one z-plane per task on plain
// threads so that generating 128 MiB takes seconds instead of ~9 s. The
// formulas live in this file so the benchmark's inputs do not move when
// the library's generators do.
#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

#include "data/generators.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using transpwr::gen::FractalNoise;

/// Run fn(z) for every z-plane in [0, nz) on nproc plain threads.
void for_each_plane(std::size_t nz,
                    const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < nproc(); ++t)
    workers.emplace_back([&] {
      for (std::size_t z; (z = next.fetch_add(1)) < nz;) fn(z);
    });
  for (auto& w : workers) w.join();
}

Field density(Dims dims, std::uint64_t seed) {
  Field f{"dark_matter_density", dims, std::vector<float>(dims.count())};
  const std::size_t nz = dims[0], ny = dims[1], nx = dims[2];
  const FractalNoise noise(seed, 6, 4.0 / static_cast<double>(nx));
  const FractalNoise clump(seed ^ 0x5eedULL, 3, 16.0 / static_cast<double>(nx));
  for_each_plane(nz, [&](std::size_t z) {
    float* out = f.values.data() + z * ny * nx;
    const double zf = static_cast<double>(z);
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x) {
        const double xf = static_cast<double>(x), yf = static_cast<double>(y);
        const double g = noise.sample3(xf, yf, zf);
        const double c = clump.sample3(xf, yf, zf);
        const double t =
            2.2 * g + 1.4 * std::max(0.0, c) * std::max(0.0, g);
        double rho = std::exp(3.3 * t - 1.2);
        if (rho < 2.5e-3) rho = 0.0;  // exact zeros in deep voids
        out[y * nx + x] = static_cast<float>(std::min(rho, 1.4e4));
      }
  });
  return f;
}

Field velocity(Dims dims, std::uint64_t seed) {
  Field f{"velocity_x", dims, std::vector<float>(dims.count())};
  const std::size_t nz = dims[0], ny = dims[1], nx = dims[2];
  const FractalNoise noise(seed, 5, 3.0 / static_cast<double>(nx));
  for_each_plane(nz, [&](std::size_t z) {
    float* out = f.values.data() + z * ny * nx;
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x)
        out[y * nx + x] = static_cast<float>(
            noise.sample3(static_cast<double>(x), static_cast<double>(y),
                          static_cast<double>(z)) *
            1.0e7);
  });
  return f;
}

}  // namespace

std::vector<Field> roundtrip_fields(std::uint64_t seed) {
  std::vector<Field> fields;
  fields.push_back(density(Dims(256, 256, 256), seed));
  fields.push_back(velocity(Dims(256, 256, 256), seed + 1));
  return fields;
}

Field served_field(std::uint64_t seed) {
  return density(Dims(4096, 64, 64), seed);
}

}  // namespace perfbench
