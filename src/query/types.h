#ifndef TRANSPWR_QUERY_TYPES_H
#define TRANSPWR_QUERY_TYPES_H

#include <cstdint>
#include <vector>

namespace transpwr {
namespace query {

/// The plain values of a compressed-domain query, apart from the Executor
/// (query/query.h), so net/protocol.h carries them without the store.

enum class Cmp : std::uint8_t { kGt = 1, kGe = 2, kLt = 3, kLe = 4 };

struct Predicate {
  Cmp cmp = Cmp::kGt;
  double threshold = 0;

  /// True when `v` (a reconstructed value; NaN never matches) satisfies
  /// the predicate.
  bool matches(double v) const;
};

/// Half-open row interval along the slowest dimension.
struct RowRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// One chunk a predicate may match, with its row extent.
struct ChunkMatch {
  std::uint64_t chunk = 0;
  std::uint64_t row_begin = 0;  ///< first row of the chunk
  std::uint64_t row_end = 0;    ///< one past the last row
  bool decided = false;  ///< true: summary alone proves a match exists
};

struct ChunkMatchResult {
  std::vector<ChunkMatch> matches;
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_pruned = 0;   ///< excluded or decided by summary
  std::uint64_t chunks_decoded = 0;  ///< always 0 here; kept for symmetry
};

struct Aggregate {
  double min = 0;  ///< min over finite values (+inf when finite == 0)
  double max = 0;  ///< max over finite values (-inf when finite == 0)
  double sum = 0;  ///< sum over finite values
  std::uint64_t count = 0;   ///< all values in the range
  std::uint64_t finite = 0;
  std::uint64_t nan = 0;
  std::uint64_t pos_inf = 0;
  std::uint64_t neg_inf = 0;
  std::uint64_t chunks_pruned = 0;
  std::uint64_t chunks_decoded = 0;

  double mean() const { return finite ? sum / static_cast<double>(finite) : 0; }
};

struct CountResult {
  std::uint64_t matching = 0;  ///< values satisfying the predicate
  std::uint64_t total = 0;     ///< values examined (the row range)
  std::uint64_t chunks_pruned = 0;
  std::uint64_t chunks_decoded = 0;
};

struct Preview {
  std::vector<std::uint64_t> rows;  ///< sampled row indices (absolute)
  std::vector<double> values;       ///< first element of each sampled row
  std::uint64_t stride = 1;
  std::uint64_t chunks_decoded = 0;
};

}  // namespace query
}  // namespace transpwr

#endif  // TRANSPWR_QUERY_TYPES_H
