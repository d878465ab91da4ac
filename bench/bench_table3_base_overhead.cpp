// Reproduces paper Table III: pre-/post-processing overhead of the log
// transformation under bases {2, e, 10}. Base 2 uses log2/exp2, base e
// log/exp, base 10 log10/pow — base 10 pays for the missing fast exp10,
// which is why the paper fixes base 2.
#include <cstdio>

#include "bench_util.h"
#include "core/transformed.h"
#include "data/generators.h"
#include "obs/obs.h"

using namespace transpwr;

int main() {
  bench::print_header(
      "Table III: pre/post-processing time (s) of different bases (NYX)");

  auto dmd = gen::nyx_dark_matter_density(Dims(128, 128, 128), 42);
  auto vx = gen::nyx_velocity(Dims(128, 128, 128), 43);
  const double bases[] = {2.0, 2.718281828459045, 10.0};

  std::printf("%-28s | %22s | %22s\n", "", "dark_matter_density",
              "velocity_x");
  std::printf("%-28s | %6s %6s %6s | %6s %6s %6s\n", "stage", "2", "e", "10",
              "2", "e", "10");

  // The stage times are the transform's own obs spans.
  auto span_seconds = [](const char* path) {
    for (const auto& [p, stat] : obs::snapshot().spans)
      if (p == path) return stat.seconds;
    return 0.0;
  };
  double pre[2][3], post[2][3];
  int fi = 0;
  obs::ScopedRecording rec;
  for (const auto* f : {&dmd, &vx}) {
    int bi = 0;
    for (double base : bases) {
      TransformedParams p;
      p.rel_bound = 1e-3;
      p.log_base = base;
      obs::reset();
      auto stream = transformed_compress<float>(f->span(), f->dims,
                                                InnerCodec::kSz, p);
      auto out = transformed_decompress<float>(stream);
      (void)out;
      pre[fi][bi] = span_seconds("transformed.compress/pre");
      post[fi][bi] = span_seconds("transformed.decompress/post");
      ++bi;
    }
    ++fi;
  }
  std::printf("%-28s | %6.3f %6.3f %6.3f | %6.3f %6.3f %6.3f\n",
              "pre-processing time(s)", pre[0][0], pre[0][1], pre[0][2],
              pre[1][0], pre[1][1], pre[1][2]);
  std::printf("%-28s | %6.3f %6.3f %6.3f | %6.3f %6.3f %6.3f\n",
              "post-processing time(s)", post[0][0], post[0][1], post[0][2],
              post[1][0], post[1][1], post[1][2]);
  std::printf(
      "\nExpected shape (paper): base 10 post-processing is several times "
      "slower (no fast exp10); velocity_x pays extra for sign handling.\n");
  return 0;
}
