// perfbench: the repository benchmark. Runs one seeded workload
// in-process against the library's public API and prints, as its last
// stdout line, one JSON object {correct, attempted, failed, metrics}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// The line before it is a detail record (host, working set, regime).
//
//   perfbench --workload snapshot_roundtrip|serve_hot|serve_cold
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//             [--git-sha SHA]
//
// perfbench/run.py builds this binary and is the usual entry point.
#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/error.h"
#include "common/parallel.h"
#include "kernels/dispatch.h"
#include "perfbench.h"
#include "testing/oracle.h"

namespace perfbench {

// --- Report ----------------------------------------------------------------

void Report::fail(const std::string& why) {
  failed.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (problems.size() < 16) problems.push_back("failed: " + why);
}

void Report::assert_that(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  facts.emplace_back("assert: " + what, ok ? 1.0 : 0.0);
  if (!ok) {
    asserts_ok_ = false;
    problems.push_back("assertion failed: " + what);
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  end_to_end.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  per_layer.push_back({name, value, unit});
}

void Report::fact(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  facts.emplace_back(name, value);
}

bool Report::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return asserts_ok_ && failed.load() == 0;
}

// --- helpers ---------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, i == 0 ? 0 : i - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
    throw transpwr::Error("perfbench: cannot create " + path);
}

void remove_dir(const std::string& path) {
  if (DIR* d = ::opendir(path.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") std::remove((path + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0)
    throw transpwr::Error("perfbench: cannot stat " + path);
  return static_cast<std::uint64_t>(st.st_size);
}

std::uint64_t bound_violations(const std::vector<float>& original,
                               const std::vector<float>& decoded,
                               double bound, std::uint64_t* modified_zeros) {
  if (original.size() != decoded.size()) {
    *modified_zeros = 0;
    return original.size() + 1;
  }
  const std::size_t n = original.size();
  const std::size_t slots = nproc();
  std::vector<std::uint64_t> bad(slots, 0), zeros(slots, 0);
  transpwr::ParallelOptions po;
  po.max_threads = slots;
  po.grain = 1 << 16;
  transpwr::parallel_for_slots(
      n,
      [&](std::size_t slot, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const double x = original[i], y = decoded[i];
          const auto env = transpwr::testing::point_envelope<float>(
              transpwr::Scheme::kSzT, bound, x);
          if (env.cls == transpwr::testing::PointClass::kExact) {
            if (y != x) {
              ++bad[slot];
              ++zeros[slot];
            }
          } else if (!(std::abs(y - x) <= env.allowed)) {
            ++bad[slot];
          }
        }
      },
      po);
  std::uint64_t total = 0, total_zeros = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    total += bad[s];
    total_zeros += zeros[s];
  }
  *modified_zeros = total_zeros;
  return total;
}

void ObsTotals::add(const transpwr::obs::Snapshot& before,
                    const transpwr::obs::Snapshot& after) {
  std::map<std::string, transpwr::obs::SpanStat> old(before.spans.begin(),
                                                     before.spans.end());
  for (const auto& [path, s] : after.spans) {
    const auto& o = old[path];
    auto& t = spans_[path];
    t.seconds += s.seconds - o.seconds;
    t.count += s.count - o.count;
  }
  std::map<std::string, std::uint64_t> oldc(before.counters.begin(),
                                            before.counters.end());
  for (const auto& [name, v] : after.counters)
    counters_[name] += v - oldc[name];
}

transpwr::obs::SpanStat ObsTotals::span(const std::string& suffix) const {
  transpwr::obs::SpanStat total;
  for (const auto& [path, s] : spans_) {
    const bool match =
        path == suffix ||
        (path.size() > suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0 &&
         path[path.size() - suffix.size() - 1] == '/');
    if (match) {
      total.seconds += s.seconds;
      total.count += s.count;
    }
  }
  return total;
}

std::uint64_t ObsTotals::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

namespace {

// --- host record -------------------------------------------------------------

std::string first_line_of(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of the last-level cache cpu0 reports (highest sysfs index).
std::string llc_size() {
  std::string best = "unknown";
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    const std::string size = first_line_of(dir + "/size");
    if (size.empty()) break;
    if (first_line_of(dir + "/type") != "Instruction")
      best = "L" + first_line_of(dir + "/level") + " " + size;
  }
  return best;
}

void append_string(std::string& out, const std::string& key,
                   const std::string& value) {
  out += '"';
  transpwr::obs::json_append_escaped(out, key);
  out += "\":\"";
  transpwr::obs::json_append_escaped(out, value);
  out += '"';
}

void append_number(std::string& out, const std::string& key, double value) {
  out += '"';
  transpwr::obs::json_append_escaped(out, key);
  out += "\":";
  if (std::isfinite(value))
    transpwr::obs::json_append_double(out, value);
  else
    out += "null";
}

std::string host_json(const Options& opt) {
  std::string out = "{";
  append_string(out, "cpu_model", cpu_model());
  out += ',';
  append_number(out, "nproc", static_cast<double>(nproc()));
  out += ',';
  append_string(out, "llc", llc_size());
  out += ',';
  append_string(out, "kernel_dispatch",
                transpwr::kernels::name(transpwr::kernels::active()));
  out += ',';
  append_string(out, "compiler", std::string("gcc ") + __VERSION__);
  out += ',';
  append_string(out, "build_type", PERFBENCH_BUILD_TYPE);
  out += ',';
  append_string(out, "git_sha", opt.git_sha);
  out += ',';
  append_number(out, "seed", static_cast<double>(opt.seed));
  out += '}';
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ',';
    first = false;
    out += '"';
    transpwr::obs::json_append_escaped(out, m.name);
    out += "\":{";
    append_number(out, "value", m.value);
    out += ',';
    append_string(out, "unit", m.unit);
    out += '}';
  }
  return out + "}";
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "snapshot_roundtrip|serve_hot|serve_cold --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--git-sha SHA]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) usage("--seed must be an integer");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(opt.seconds > 0)) usage("--seconds must be positive");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--git-sha") {
      opt.git_sha = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (opt.workload != "snapshot_roundtrip" && opt.workload != "serve_hot" &&
      opt.workload != "serve_cold")
    usage("unknown or missing --workload");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  Report rep;
  try {
    make_dir(opt.work_dir);
    if (opt.workload == "snapshot_roundtrip")
      run_roundtrip(opt, rep);
    else
      run_serve(opt, opt.workload == "serve_hot", rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!opt.trace) rep.metric("peak_rss_mb", peak_rss_mib(), "MiB");

  const auto& shown = opt.trace ? rep.per_layer : rep.end_to_end;
  std::printf("\n%-32s %14s  %s\n", "metric", "value", "unit");
  for (const Metric& m : shown)
    std::printf("%-32s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& p : rep.problems) std::printf("%s\n", p.c_str());

  std::string detail = "{\"perfbench\":{";
  append_string(detail, "workload", opt.workload);
  detail += ",\"trace\":";
  detail += opt.trace ? "true" : "false";
  detail += ",\"host\":" + host_json(opt) + ",\"facts\":{";
  bool first = true;
  for (const auto& [k, v] : rep.facts) {
    if (!first) detail += ',';
    first = false;
    append_number(detail, k, v);
  }
  detail += "},\"problems\":[";
  first = true;
  for (const auto& p : rep.problems) {
    if (!first) detail += ',';
    first = false;
    detail += '"';
    transpwr::obs::json_append_escaped(detail, p);
    detail += '"';
  }
  detail += "]}}";
  std::printf("%s\n", detail.c_str());

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              rep.correct() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted.load()),
              static_cast<unsigned long long>(rep.failed.load()),
              metrics_json(shown).c_str());
  std::fflush(stdout);
  return 0;
}
