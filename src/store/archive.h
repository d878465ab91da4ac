#ifndef TRANSPWR_STORE_ARCHIVE_H
#define TRANSPWR_STORE_ARCHIVE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mapped_file.h"
#include "core/compressor.h"

namespace transpwr {
namespace store {

/// TPAR: the on-disk archive container for compressed snapshots.
///
/// The per-rank `*.bin` blobs the Fig. 6 harness started from have no
/// index, no integrity check, and no way to read a subvolume back without
/// decompressing a whole file. TPAR is the self-describing replacement: a
/// head magic + version, then one or more *named datasets*, each stored as
/// byte-aligned compressed chunks (row slabs along the slowest dimension,
/// one scheme stream per chunk), then a footer holding the whole directory — names,
/// scheme/dtype/dims/params, and per chunk its row count, byte offset,
/// size, and FNV-1a 64 checksum. The footer is written *last* and is
/// itself checksummed, so a truncated or bit-rotted file is rejected with
/// a clean StreamError at open / verify / load instead of decoding into
/// garbage science data. See docs/formats.md for the byte layout.
struct ChunkInfo {
  std::uint64_t rows = 0;      ///< rows along the slowest dimension
  std::uint64_t offset = 0;    ///< absolute byte offset of the chunk stream
  std::uint64_t size = 0;      ///< chunk stream size in bytes
  std::uint64_t checksum = 0;  ///< fnv1a64 of the chunk stream
};

/// Per-chunk compressed-domain summary (TPAR v2). Statistics are taken
/// over the *reconstructed* values (bit for bit what a decompress of the
/// chunk gives, handed back by the compressor at write time), so answers
/// derived from summaries agree exactly with decompress-then-scan — no
/// error-bound slop enters query results.
/// `min`/`max`/`sum` cover finite values only; a chunk with no finite
/// values carries the sentinels min=+inf, max=-inf, sum=0. The histogram
/// is `kHistBuckets` equal-width buckets over the chunk-local [min, max]
/// (everything lands in bucket 0 when min == max).
struct ChunkSummary {
  static constexpr std::size_t kHistBuckets = 16;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double sum = 0;
  std::uint64_t finite = 0;   ///< finite values in the chunk
  std::uint64_t nan = 0;      ///< NaN values
  std::uint64_t pos_inf = 0;  ///< +inf values
  std::uint64_t neg_inf = 0;  ///< -inf values
  std::array<std::uint64_t, kHistBuckets> hist{};

  std::uint64_t total() const { return finite + nan + pos_inf + neg_inf; }
};

struct DatasetInfo {
  std::string name;
  DataType dtype = DataType::kFloat32;
  Scheme scheme = Scheme::kSzT;
  Dims dims;
  double bound = 0;     ///< error bound the dataset was compressed with
  double log_base = 0;  ///< transform base (metadata; streams self-describe)
  std::vector<ChunkInfo> chunks;
  /// Empty (v1 archives, or datasets whose stream could not be decoded at
  /// write time) or exactly one summary per chunk.
  std::vector<ChunkSummary> summaries;

  bool has_summaries() const { return !summaries.empty(); }

  std::uint64_t compressed_bytes() const {
    std::uint64_t total = 0;
    for (const auto& c : chunks) total += c.size;
    return total;
  }
};

/// Summarize a reconstructed value span (the write-time producer of
/// ChunkSummary; exposed so tests and the query fallback path can build
/// reference summaries with identical semantics).
template <typename T>
ChunkSummary summarize_values(std::span<const T> values);

/// Per-dataset compression knobs for ArchiveWriter::add_dataset.
struct DatasetOptions {
  Scheme scheme = Scheme::kSzT;
  CompressorParams params;
  std::size_t rows_per_chunk = 0;  ///< 0 => one chunk per worker thread
  std::size_t threads = 0;         ///< 0 => hardware concurrency
  /// Compute per-chunk ChunkSummary blocks (TPAR v2 compressed-domain
  /// analytics) over each chunk's reconstruction, which the compressor
  /// returns with the stream: the SZ family's encoder already holds it,
  /// ZFP, FPZIP and ISABELA decode the chunk they just wrote.
  bool summaries = true;
};

/// Writes a TPAR archive. Chunk compression is fanned out over the shared
/// thread pool and *pipelined* with the sequential file writes: chunk i is
/// appended as soon as it is compressed while later chunks are still in
/// flight, so the writer streams instead of buffering a whole dataset.
///
/// Finalization guards against process crashes and torn files, not power
/// loss: bytes go to `<path>.part` and the file is renamed onto `path`
/// only after the footer is written and flushed to the OS, so a crashed or
/// abandoned writer never leaves a readable-looking torn archive behind.
/// Neither the file nor its directory is fsync'ed, so a power failure can
/// still lose or truncate a freshly finished archive. Destroying an
/// unfinished writer removes the partial file.
class ArchiveWriter {
 public:
  /// Open `<path>.part` for writing; finish() renames it onto `path`.
  explicit ArchiveWriter(std::string path);
  /// In-memory archive (tests, fuzzing): bytes accumulate in `*buffer`.
  explicit ArchiveWriter(std::vector<std::uint8_t>* buffer);
  ~ArchiveWriter();
  ArchiveWriter(const ArchiveWriter&) = delete;
  ArchiveWriter& operator=(const ArchiveWriter&) = delete;

  /// Compress `data` under `name` and append it as a chunked dataset:
  /// begin_dataset, one append_rows of the whole field, end_dataset.
  /// Throws ParamError on bad input and poisons the writer if a chunk
  /// fails to compress or write (the partial archive is unusable).
  template <typename T>
  void add_dataset(const std::string& name, std::span<const T> data,
                   Dims dims, const DatasetOptions& opts = {});

  /// Streaming form of add_dataset for in-situ producers that emit a field
  /// a few rows (slowest-dimension planes) at a time. Any sequence of
  /// appends writes the same bytes as add_dataset of the whole field.
  /// One dataset may be open at a time; add_dataset, add_compressed and
  /// finish throw ParamError while it is.
  template <typename T>
  void begin_dataset(const std::string& name, Dims dims,
                     const DatasetOptions& opts = {});

  /// Append whole rows to the open dataset. Complete chunks are compressed
  /// straight from `rows`; only a trailing partial chunk is copied. Returns
  /// once no task still reads `rows`. Finished chunks are written as soon
  /// as every earlier chunk is, and at most `threads` buffered chunks are
  /// in flight, so memory stays at a few chunks.
  template <typename T>
  void append_rows(std::span<const T> rows);

  /// Rows the open dataset still expects (0 when none is open).
  std::size_t rows_remaining() const;

  /// Wait for the remaining chunks, write them, and enter the dataset into
  /// the directory. Throws ParamError if rows are still missing.
  void end_dataset();

  /// Append an already-compressed scheme stream verbatim as a single-chunk
  /// dataset (the N-to-1 harness path: every rank compressed its own
  /// shard). `bound`/`log_base` are recorded as metadata only. The stream
  /// is not decoded, so the dataset carries no summaries and queries over
  /// it fall back to full scans.
  void add_compressed(const std::string& name, DataType dtype, Scheme scheme,
                      Dims dims, double bound, double log_base,
                      std::span<const std::uint8_t> stream);

  /// Write the footer, flush, and (file mode) rename into place. The
  /// writer may not be reused afterwards.
  void finish();

  std::size_t datasets() const { return directory_.size(); }
  std::uint64_t bytes_written() const { return offset_; }

 private:
  struct OpenDataset;

  void append(std::span<const std::uint8_t> bytes);
  void require_usable(const char* verb) const;
  void require_no_open_dataset(const char* verb) const;
  void check_new_name(const std::string& name) const;
  /// Write finished chunks in order: block until `must` chunks of the open
  /// dataset are written, then also write any already-done successors.
  void write_chunks(std::size_t must);

  std::string path_;       // final path ("" in memory mode)
  std::string tmp_path_;   // path_ + ".part"
  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t>* mem_ = nullptr;
  std::uint64_t offset_ = 0;
  std::vector<DatasetInfo> directory_;
  // Shared with in-flight chunk tasks, which may outlive an abandoned
  // writer; they only ever touch this state.
  std::shared_ptr<OpenDataset> open_;
  bool finished_ = false;
  bool failed_ = false;
};

/// Random-access reader over a TPAR archive. The constructor validates the
/// head magic/version, the footer checksum, and the whole directory (chunk
/// extents must exactly tile the space between header and footer), so any
/// structural corruption is a StreamError at open; payload corruption is
/// caught by the per-chunk checksums on first touch of each chunk.
///
/// I/O model — zero-copy where the platform allows it:
///   * File archives are memory-mapped (`MappedFile`); chunk bytes are
///     handed to decoders as spans straight into the page cache, with no
///     buffering or copying. Opening costs O(directory), not O(file):
///     only the footer pages fault in.
///   * When mapping is unavailable (or disabled via
///     TRANSPWR_ARCHIVE_MMAP=0), chunks are fetched with positional
///     `pread` into per-call buffers. There is no shared seek position
///     and no lock: intra-reader parallel chunk decode and concurrent
///     readers of one archive both proceed without I/O contention.
///     (The historical `FILE*` fallback serialized every intra-reader
///     parallel decode on one handle behind a mutex.)
///
/// Checksum verification is *lazy*: each chunk is FNV-verified the first
/// time it is touched, and the verdict is remembered in a per-archive
/// atomic bitmap, so repeated reads of a hot chunk checksum it once. A
/// failed verification always throws and is never cached — a corrupt
/// chunk fails on every touch. `verify()` remains the eager full scan.
///
/// Decoded chunks are additionally served from the process-wide
/// `ChunkCache` (see store/chunk_cache.h), shared across readers, so
/// repeated region-of-interest reads skip decompression entirely.
class ArchiveReader {
 public:
  /// Open a file: mmap-backed when possible, positional-read otherwise.
  explicit ArchiveReader(const std::string& path);
  /// Parse an in-memory archive; `bytes` must outlive the reader.
  explicit ArchiveReader(std::span<const std::uint8_t> bytes);
  ~ArchiveReader();
  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;

  const std::vector<DatasetInfo>& datasets() const { return directory_; }
  const DatasetInfo& dataset(const std::string& name) const;

  /// Format version of the archive on disk: 1 (no summary blocks) or 2.
  std::uint32_t version() const { return version_; }

  /// True when chunk bytes are served as views with no copy (memory-mode
  /// readers and mmap-backed file readers).
  bool zero_copy() const { return !view_.empty(); }
  /// True when this reader holds a live memory mapping of the file.
  bool mapped() const { return file_.mapped(); }

  /// The archive identity this reader keys shared decoded chunks under:
  /// file_archive_id(device, inode, size, mtime) for file archives, a
  /// process-unique memory_archive_id() otherwise. The serve registry
  /// keys its shared reader handles on the same tuple, so a rewritten
  /// file changes identity and is re-opened on the next request.
  std::uint64_t identity() const { return cache_id_; }

  /// Decompress a whole dataset (chunks lazily checksummed and decoded in
  /// parallel; `threads` = 0 uses hardware concurrency).
  template <typename T>
  std::vector<T> load(const std::string& name, Dims* dims_out = nullptr,
                      std::size_t threads = 0);

  /// Decompress one chunk only; `chunk_dims_out` receives its shape.
  template <typename T>
  std::vector<T> load_chunk(const std::string& name, std::size_t chunk,
                            Dims* chunk_dims_out = nullptr);

  /// Region-of-interest load: reconstruct only the rows
  /// [row_begin, row_end) along the slowest dimension, touching (and
  /// checksumming) only the chunks that overlap the range.
  template <typename T>
  std::vector<T> read_rows(const std::string& name, std::size_t row_begin,
                           std::size_t row_end, Dims* roi_dims_out = nullptr,
                           std::size_t threads = 0);

  /// Shape of rows [row_begin, row_end) of dataset `name`, so a caller can
  /// size its buffer before reading. Throws ParamError when the range is
  /// empty or out of bounds, and the decode guard's error when it is too
  /// large to materialize.
  Dims rows_dims(const std::string& name, std::size_t row_begin,
                 std::size_t row_end) const;

  /// read_rows into caller memory: `dst` receives the rows' raw
  /// little-endian element bytes (any alignment) and must be exactly
  /// rows_dims(...).count() elements of the dataset's type long. Cached
  /// chunks are copied straight in; nothing else is allocated.
  void read_rows_into(const std::string& name, std::size_t row_begin,
                      std::size_t row_end, std::span<std::uint8_t> dst,
                      std::size_t threads = 0);

  /// Read one chunk's raw compressed stream, checksum-verified. Lets
  /// callers that time I/O separately from decode (the Fig. 6 harness)
  /// split the phases.
  std::vector<std::uint8_t> read_chunk_bytes(const std::string& name,
                                             std::size_t chunk);

  /// Offline integrity scan: re-read and checksum every chunk of every
  /// dataset (always eager, regardless of what the lazy bitmap already
  /// knows). Throws StreamError naming the first corrupt chunk.
  void verify();

 private:
  /// One chunk's compressed bytes: a borrowed view in zero-copy modes, an
  /// owned pread buffer otherwise. `bytes` is valid either way.
  struct ChunkBytes {
    std::span<const std::uint8_t> bytes;
    std::vector<std::uint8_t> owned;
  };

  /// Fetch chunk bytes and lazily verify their checksum (first touch
  /// verifies and records the verdict; later touches skip the checksum).
  ChunkBytes chunk_bytes(std::size_t ds_index, std::size_t chunk);

  /// Copy `elem_count` elements of one chunk's decoded payload, starting
  /// at `elem_begin`, into the bytes at `dst` — served from the shared
  /// decoded-chunk cache on a hit, decoded (and inserted) on a miss.
  template <typename T>
  void copy_chunk_elems(std::size_t ds_index, std::size_t chunk,
                        std::size_t elem_begin, std::size_t elem_count,
                        std::uint8_t* dst);

  /// Copy rows [row_begin, row_end) of dataset `ds_index` to `dst`,
  /// touching only the chunks that overlap them, in parallel.
  template <typename T>
  void copy_rows(std::size_t ds_index, std::size_t row_begin,
                 std::size_t row_end, std::uint8_t* dst, std::size_t threads);

  std::size_t dataset_index(const std::string& name) const;
  bool chunk_verified(std::size_t flat_index) const;
  void mark_chunk_verified(std::size_t flat_index);
  void parse_footer();

  MappedFile file_;  // file mode only; default (closed) in memory mode
  std::span<const std::uint8_t> view_;  // mapping or caller buffer
  std::uint64_t size_ = 0;
  std::uint32_t version_ = 0;
  std::uint64_t cache_id_ = 0;  // ChunkCache archive identity
  std::vector<DatasetInfo> directory_;
  // Lazy-verification bitmap over all chunks of all datasets, flattened
  // in directory order; chunk_bit_base_[d] is dataset d's first bit.
  std::vector<std::size_t> chunk_bit_base_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> verified_;
};

}  // namespace store
}  // namespace transpwr

#endif  // TRANSPWR_STORE_ARCHIVE_H
