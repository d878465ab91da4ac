// In-situ streaming: a simulation loop produces one z-plane per "step"; the
// archive writer's streaming dataset packs planes into chunks, compresses
// each chunk the moment it fills and writes it at once, so the writer holds
// a few chunks at a time — not the whole snapshot. This is the deployment
// style the paper's I/O motivation (Sec. I) implies: compress while the
// data is still in memory, write small.
//
//   $ ./example_insitu_streaming
#include <cstdio>
#include <vector>

#include "data/generators.h"
#include "metrics/metrics.h"
#include "store/archive.h"

using namespace transpwr;

int main() {
  const Dims dims(64, 96, 96);  // full snapshot shape
  const std::size_t row = dims[1] * dims[2];

  // The "simulation": we precompute the field here only to have ground
  // truth for verification; the writer sees one plane at a time.
  auto truth = gen::hurricane_wind(dims, 2026);

  store::DatasetOptions opts;
  opts.scheme = Scheme::kSzT;
  opts.params.bound = 5e-3;
  opts.rows_per_chunk = 8;
  // In memory here; ArchiveWriter(path) streams the chunks to a file.
  std::vector<std::uint8_t> archive;
  store::ArchiveWriter writer(&archive);
  writer.begin_dataset<float>("wind", dims, opts);
  for (std::size_t step = 0; step < dims[0]; ++step) {
    // ... simulation advances, producing plane `step` ...
    std::span<const float> plane(truth.values.data() + step * row, row);
    writer.append_rows(plane);
  }
  writer.end_dataset();
  writer.finish();

  std::printf("snapshot:   %s (%.1f MB)\n", dims.to_string().c_str(),
              static_cast<double>(truth.bytes()) / (1 << 20));
  std::printf("chunk:      %.2f MB (%zu planes)\n",
              static_cast<double>(opts.rows_per_chunk * row * sizeof(float)) /
                  (1 << 20),
              opts.rows_per_chunk);
  std::printf("compressed: %zu bytes (ratio %.2fx)\n", archive.size(),
              compression_ratio(truth.bytes(), archive.size()));

  // The post-analysis side loads the whole dataset (chunks in parallel).
  store::ArchiveReader reader(archive);
  auto restored = reader.load<float>("wind");
  auto stats = compute_error_stats(truth.span(),
                                   std::span<const float>(restored));
  std::printf("max pointwise rel error: %.3e (bound %g)\n", stats.max_rel,
              opts.params.bound);
  return stats.unbounded_at(opts.params.bound) == 0 ? 0 : 1;
}
