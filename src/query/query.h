#ifndef TRANSPWR_QUERY_QUERY_H
#define TRANSPWR_QUERY_QUERY_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "query/types.h"
#include "store/archive.h"

namespace transpwr {
namespace query {

/// Compressed-domain analytics over TPAR (the ROADMAP's HoSZp item):
/// answer range predicates, aggregates, and downsampled previews from the
/// per-chunk ChunkSummary blocks a v2 archive carries, decoding only the
/// chunks a summary cannot decide — partial row ranges and chunks a
/// predicate straddles. Summaries describe the *reconstructed* values, so
/// every answer here is exactly what decompress-then-scan would produce.
/// v1 archives (no summaries) still answer every query via full scans.
///
/// Decoded chunks ride the PR 8 machinery: the mmap-backed reader and the
/// process-wide decoded-chunk cache, so a query that must open chunks
/// pays decode once per chunk across all queries in the process.
///
/// Counters: query.requests, query.chunks_pruned (answered from the
/// summary alone), query.chunks_decoded, query.fallback_scans (dataset
/// had no summaries).

/// Parse "gt:1.5" / "ge:-2" / "lt:1e9" / "le:0". Throws ParamError on
/// anything else (unknown op, missing ':', non-finite threshold).
Predicate parse_predicate(std::string_view spec);
const char* cmp_name(Cmp cmp);

/// Query executor over one dataset of an open archive. Borrows the
/// reader; the reader must outlive the executor. Not synchronized —
/// share the reader, not the executor.
class Executor {
 public:
  Executor(store::ArchiveReader& reader, const std::string& dataset);

  const store::DatasetInfo& dataset() const { return *ds_; }
  bool has_summaries() const { return ds_->has_summaries(); }

  /// Which chunks can contain a value satisfying `p`? Exact from
  /// summaries (min/max plus the inf tallies bound every comparison);
  /// without summaries every chunk is returned undecided.
  ChunkMatchResult find_chunks(const Predicate& p);

  /// min/max/sum/mean/count over [range.begin, range.end) — whole chunks
  /// inside the range are answered from their summary; only chunks the
  /// range cuts through are decoded.
  Aggregate aggregate(const RowRange& range);

  /// How many values in the range satisfy `p`? Chunks whose summary
  /// proves all-match or none-match are never decoded.
  CountResult count_where(const Predicate& p, const RowRange& range);

  /// Strided downsample: ~`points` rows evenly spaced across the range,
  /// reporting the first element of each sampled row. Touches only the
  /// chunks the sampled rows land in.
  Preview preview(std::uint64_t points, const RowRange& range);

  /// Full row extent of the dataset, for callers that pass no range.
  RowRange full_range() const { return {0, ds_->dims[0]}; }

 private:
  /// Resolve an empty/defaulted range and bounds-check it.
  RowRange resolve(const RowRange& range) const;
  /// Row extent of chunk `c`.
  RowRange chunk_rows(std::size_t c) const;
  /// Decode chunk `c` (cache-served) and fold rows [begin, end) of it
  /// into `agg` / the match counter. Either out-param may be null.
  void scan_chunk(std::size_t c, std::uint64_t row_begin,
                  std::uint64_t row_end, const Predicate* p,
                  Aggregate* agg, std::uint64_t* matching);

  store::ArchiveReader* reader_;
  const store::DatasetInfo* ds_;
  std::vector<std::uint64_t> row_start_;  ///< first row of each chunk
  std::uint64_t row_elems_ = 1;
};

}  // namespace query
}  // namespace transpwr

#endif  // TRANSPWR_QUERY_QUERY_H
