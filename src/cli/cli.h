#ifndef TRANSPWR_CLI_CLI_H
#define TRANSPWR_CLI_CLI_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/compressor.h"

namespace transpwr {
namespace cli {

/// Parsed command line for the `transpwr` tool. Kept as a plain struct so
/// parsing is unit-testable without spawning processes.
struct Args {
  std::string command;  // compress|decompress|info|gen|eval|archive|query
                        // |serve
  std::string archive_cmd;  // archive: create|ls|extract|verify
  std::string query_cmd;    // query: summary|chunks|agg|count|preview
  std::string where;        // query: predicate spec, e.g. "gt:1.5"
  std::uint64_t points = 64;  // query preview: target sample count
  std::string input;
  std::vector<std::string> inputs;  // archive create: input files
  std::string output;
  std::string dataset;      // archive extract: dataset to pull (default:
                            // the archive's only dataset)
  std::optional<std::pair<std::size_t, std::size_t>> rows;  // extract ROI
  Scheme scheme = Scheme::kSzT;
  double bound = 1e-3;
  double log_base = 2.0;
  DataType dtype = DataType::kFloat32;
  std::optional<Dims> dims;
  std::size_t threads = 0;  // 0 => auto
  std::size_t chunks = 0;   // 0 => one per thread
  std::string workload;     // gen: hacc|cesm|nyx|hurricane
  std::string field;        // gen: field name within the workload
  std::uint64_t seed = 42;
  bool stats = false;        // --stats: dump the obs registry to stderr
  std::string stats_json;    // --stats-json PATH: write the registry as JSON
  bool json = false;         // archive ls/verify: machine-readable output
  std::optional<std::uint16_t> port;       // serve: TPRQ1 port
  std::optional<std::uint16_t> http_port;  // serve: HTTP facade port
  bool no_http = false;                    // serve: binary protocol only
  bool bind_all = false;                   // serve: all interfaces, not lo
};

/// Throws ParamError with a usage-style message on malformed input.
Args parse_args(const std::vector<std::string>& argv);

/// Parse "ZxYxX" / "YxX" / "N" into Dims.
Dims parse_dims(const std::string& text);

/// Run one parsed command; returns a process exit code. Output goes to
/// stdout (suitable for piping).
int run(const Args& args);

/// argv-style convenience wrapper: parse + run, printing usage on error.
int main_entry(int argc, const char* const* argv);

/// Human-readable usage text.
const char* usage();

}  // namespace cli
}  // namespace transpwr

#endif  // TRANSPWR_CLI_CLI_H
