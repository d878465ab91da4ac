#include "store/archive.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>

#include "common/bytestream.h"
#include "common/checksum.h"
#include "common/decode_guard.h"
#include "common/env.h"
#include "common/error.h"
#include "common/parallel.h"
#include "obs/obs.h"
#include "store/chunk_cache.h"

namespace transpwr {
namespace store {
namespace {

constexpr std::uint32_t kMagic = 0x31415054;     // "TPA1"
constexpr std::uint32_t kEndMagic = 0x45415054;  // "TPAE"
// v1: directory only. v2 appends an optional per-dataset summary section
// (ChunkSummary per chunk) after the chunk entries. The writer always
// emits v2; the reader accepts both.
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kWriterVersion = 2;
constexpr std::uint64_t kHeadSize = 8;     // magic + version
constexpr std::uint64_t kTrailerSize = 20;  // footer fnv + footer size + end magic
constexpr std::size_t kMaxNameLen = 255;
constexpr std::size_t kMaxDatasets = 1u << 20;

std::size_t resolve_threads(std::size_t threads) {
  return threads ? threads : default_threads();
}

/// Footer blob: the whole directory, serialized dataset by dataset. The
/// trailer (checksum + size + end magic) frames it from the file's tail.
/// v2 appends, after each dataset's chunk entries, a `u8 has_summary`
/// flag and — when set — `u32 hist_buckets` followed by one 184-byte
/// ChunkSummary block per chunk.
std::vector<std::uint8_t> serialize_footer(
    const std::vector<DatasetInfo>& directory) {
  ByteWriter out;
  out.put(static_cast<std::uint32_t>(directory.size()));
  for (const auto& ds : directory) {
    out.put(static_cast<std::uint16_t>(ds.name.size()));
    out.put_bytes({reinterpret_cast<const std::uint8_t*>(ds.name.data()),
                   ds.name.size()});
    out.put(static_cast<std::uint8_t>(ds.dtype));
    out.put(static_cast<std::uint8_t>(ds.scheme));
    out.put(static_cast<std::uint8_t>(ds.dims.nd));
    out.put(std::uint8_t{0});
    for (int i = 0; i < 3; ++i)
      out.put(static_cast<std::uint64_t>(ds.dims.d[static_cast<std::size_t>(i)]));
    out.put(ds.bound);
    out.put(ds.log_base);
    out.put(static_cast<std::uint32_t>(ds.chunks.size()));
    for (const auto& c : ds.chunks) {
      out.put(c.rows);
      out.put(c.offset);
      out.put(c.size);
      out.put(c.checksum);
    }
    out.put(std::uint8_t{ds.has_summaries() ? std::uint8_t{1}
                                            : std::uint8_t{0}});
    if (ds.has_summaries()) {
      out.put(static_cast<std::uint32_t>(ChunkSummary::kHistBuckets));
      for (const auto& s : ds.summaries) {
        out.put(s.min);
        out.put(s.max);
        out.put(s.sum);
        out.put(s.finite);
        out.put(s.nan);
        out.put(s.pos_inf);
        out.put(s.neg_inf);
        for (auto h : s.hist) out.put(h);
      }
    }
  }
  return out.take();
}

/// Structural validation of one parsed summary block against its chunk's
/// element count. Rejects any block our writer could not have produced,
/// so a flipped bit that survives into parse (it cannot — the footer is
/// checksummed — but hand-built or fuzzed footers can) is a StreamError.
void validate_summary(const ChunkSummary& s, std::uint64_t chunk_elems,
                      const std::string& ds_name) {
  auto fail = [&](const char* why) {
    throw StreamError("archive: dataset " + ds_name + " summary block " +
                      why);
  };
  if (s.finite > chunk_elems || s.nan > chunk_elems ||
      s.pos_inf > chunk_elems || s.neg_inf > chunk_elems ||
      s.finite + s.nan + s.pos_inf + s.neg_inf != chunk_elems)
    fail("tallies do not sum to the chunk element count");
  std::uint64_t hist_sum = 0;
  for (auto h : s.hist) {
    if (h > s.finite || hist_sum > s.finite - h)
      fail("histogram does not sum to the finite tally");
    hist_sum += h;
  }
  if (hist_sum != s.finite)
    fail("histogram does not sum to the finite tally");
  if (s.finite == 0) {
    if (s.min != std::numeric_limits<double>::infinity() ||
        s.max != -std::numeric_limits<double>::infinity() || s.sum != 0)
      fail("has no finite values but non-sentinel statistics");
  } else {
    if (!std::isfinite(s.min) || !std::isfinite(s.max) || s.min > s.max ||
        std::isnan(s.sum))
      fail("min/max/sum are inconsistent");
  }
}

/// Parse and validate the footer blob. `payload_end` is the absolute offset
/// where the footer begins — every chunk extent must tile
/// [kHeadSize, payload_end) exactly, in directory order, so *any* byte of
/// the file is covered by either a field compare or a checksum.
std::vector<DatasetInfo> parse_directory(std::span<const std::uint8_t> footer,
                                         std::uint64_t payload_end,
                                         std::uint32_t version) {
  ByteReader in(footer);
  auto count = in.get<std::uint32_t>();
  if (count > kMaxDatasets)
    throw StreamError("archive: implausible dataset count");
  std::vector<DatasetInfo> directory;
  directory.reserve(count);
  std::uint64_t expected = kHeadSize;
  for (std::uint32_t d = 0; d < count; ++d) {
    DatasetInfo ds;
    auto name_len = in.get<std::uint16_t>();
    if (name_len == 0 || name_len > kMaxNameLen)
      throw StreamError("archive: bad dataset name length");
    auto name_bytes = in.get_bytes(name_len);
    ds.name.assign(reinterpret_cast<const char*>(name_bytes.data()),
                   name_bytes.size());
    for (const auto& prev : directory)
      if (prev.name == ds.name)
        throw StreamError("archive: duplicate dataset name " + ds.name);
    auto dtype = in.get<std::uint8_t>();
    if (dtype > static_cast<std::uint8_t>(DataType::kFloat64))
      throw StreamError("archive: unknown dtype byte");
    ds.dtype = static_cast<DataType>(dtype);
    auto scheme = in.get<std::uint8_t>();
    if (scheme > static_cast<std::uint8_t>(Scheme::kSziT))
      throw StreamError("archive: unknown scheme byte");
    ds.scheme = static_cast<Scheme>(scheme);
    ds.dims.nd = in.get<std::uint8_t>();
    in.get<std::uint8_t>();
    for (int i = 0; i < 3; ++i)
      ds.dims.d[static_cast<std::size_t>(i)] =
          static_cast<std::size_t>(in.get<std::uint64_t>());
    checked_count(ds.dims, "archive");
    ds.bound = in.get<double>();
    ds.log_base = in.get<double>();
    auto nchunks = in.get<std::uint32_t>();
    // Each chunk needs its 32-byte directory entry in the footer.
    if (nchunks == 0 || nchunks > ds.dims[0] ||
        nchunks > footer.size() / 32)
      throw StreamError("archive: implausible chunk count for " + ds.name);
    ds.chunks.resize(nchunks);
    std::uint64_t rows_sum = 0;
    for (auto& c : ds.chunks) {
      c.rows = in.get<std::uint64_t>();
      c.offset = in.get<std::uint64_t>();
      c.size = in.get<std::uint64_t>();
      c.checksum = in.get<std::uint64_t>();
      if (c.rows == 0 || c.rows > ds.dims[0] - rows_sum)
        throw StreamError("archive: chunk rows do not sum to dataset rows");
      rows_sum += c.rows;
      if (c.offset != expected)
        throw StreamError("archive: chunk extents do not tile the payload");
      if (c.size > payload_end - expected)
        throw StreamError("archive: chunk extends past the footer");
      expected += c.size;
    }
    if (rows_sum != ds.dims[0])
      throw StreamError("archive: chunk rows do not sum to dataset rows");
    if (version >= 2) {
      auto has_summary = in.get<std::uint8_t>();
      if (has_summary > 1)
        throw StreamError("archive: bad summary flag for " + ds.name);
      if (has_summary) {
        auto buckets = in.get<std::uint32_t>();
        if (buckets != ChunkSummary::kHistBuckets)
          throw StreamError("archive: unsupported summary bucket count for " +
                            ds.name);
        const std::uint64_t row_elems = ds.dims.count() / ds.dims[0];
        ds.summaries.resize(nchunks);
        for (std::uint32_t i = 0; i < nchunks; ++i) {
          ChunkSummary& s = ds.summaries[i];
          s.min = in.get<double>();
          s.max = in.get<double>();
          s.sum = in.get<double>();
          s.finite = in.get<std::uint64_t>();
          s.nan = in.get<std::uint64_t>();
          s.pos_inf = in.get<std::uint64_t>();
          s.neg_inf = in.get<std::uint64_t>();
          for (auto& h : s.hist) h = in.get<std::uint64_t>();
          validate_summary(s, ds.chunks[i].rows * row_elems, ds.name);
        }
      }
    }
    directory.push_back(std::move(ds));
  }
  if (in.remaining() != 0)
    throw StreamError("archive: trailing bytes after the directory");
  if (expected != payload_end)
    throw StreamError("archive: chunk extents do not tile the payload");
  return directory;
}

}  // namespace

template <typename T>
ChunkSummary summarize_values(std::span<const T> values) {
  ChunkSummary s;
  for (T v : values) {
    const double d = static_cast<double>(v);
    if (std::isnan(d)) {
      ++s.nan;
    } else if (std::isinf(d)) {
      ++(d > 0 ? s.pos_inf : s.neg_inf);
    } else {
      ++s.finite;
      s.min = std::min(s.min, d);
      s.max = std::max(s.max, d);
      s.sum += d;
    }
  }
  if (s.finite == 0) return s;
  // Second pass: equal-width histogram over the chunk-local range. The
  // bucket index is computed in double and clamped, guarding against both
  // the d == max edge (which lands exactly on kHistBuckets) and a range
  // whose width overflows to +inf (where the ratio can go NaN).
  const double lo = s.min;
  const double width = s.max - s.min;
  for (T v : values) {
    const double d = static_cast<double>(v);
    if (std::isnan(d) || std::isinf(d)) continue;
    std::size_t bucket = 0;
    if (width > 0) {
      const double x =
          (d - lo) / width * static_cast<double>(ChunkSummary::kHistBuckets);
      if (x >= static_cast<double>(ChunkSummary::kHistBuckets - 1))
        bucket = ChunkSummary::kHistBuckets - 1;
      else if (x > 0)
        bucket = static_cast<std::size_t>(x);
    }
    ++s.hist[bucket];
  }
  return s;
}

template ChunkSummary summarize_values<float>(std::span<const float>);
template ChunkSummary summarize_values<double>(std::span<const double>);

// --- ArchiveWriter ----------------------------------------------------------

ArchiveWriter::ArchiveWriter(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".part") {
  if (path_.empty()) throw ParamError("archive: empty path");
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (!file_) throw StreamError("archive: cannot open " + tmp_path_);
  ByteWriter head;
  head.put(kMagic);
  head.put(kWriterVersion);
  auto bytes = head.take();
  append(bytes);
}

ArchiveWriter::ArchiveWriter(std::vector<std::uint8_t>* buffer)
    : mem_(buffer) {
  if (!mem_) throw ParamError("archive: null buffer");
  mem_->clear();
  ByteWriter head;
  head.put(kMagic);
  head.put(kWriterVersion);
  auto bytes = head.take();
  append(bytes);
}

ArchiveWriter::~ArchiveWriter() {
  if (file_) std::fclose(file_);
  if (!finished_ && !tmp_path_.empty()) std::remove(tmp_path_.c_str());
}

void ArchiveWriter::append(std::span<const std::uint8_t> bytes) {
  if (file_) {
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
      failed_ = true;
      throw StreamError("archive: short write to " + tmp_path_);
    }
  } else {
    mem_->insert(mem_->end(), bytes.begin(), bytes.end());
  }
  offset_ += bytes.size();
}

void ArchiveWriter::require_usable(const char* verb) const {
  if (finished_)
    throw ParamError(std::string("archive: ") + verb + " after finish");
  if (failed_)
    throw StreamError(std::string("archive: ") + verb +
                      " on a poisoned writer (an earlier dataset failed)");
}

void ArchiveWriter::check_new_name(const std::string& name) const {
  if (name.empty() || name.size() > kMaxNameLen)
    throw ParamError("archive: dataset name must be 1.." +
                     std::to_string(kMaxNameLen) + " bytes");
  for (const auto& ds : directory_)
    if (ds.name == name)
      throw ParamError("archive: duplicate dataset name " + name);
}

/// The dataset being streamed by begin_dataset/append_rows/end_dataset.
/// Chunk tasks on the shared pool publish their results here under `mu`;
/// the writer thread consumes them strictly in chunk order.
struct ArchiveWriter::OpenDataset {
  DatasetInfo info;  // chunks and summaries fill in as chunks are written
  DatasetOptions opts;
  std::size_t row_elems = 0;
  std::size_t rows_per_chunk = 0;
  std::size_t rows_seen = 0;
  std::size_t max_buffered = 1;  // buffered chunks allowed in flight
  std::size_t submitted = 0;     // chunks handed to the pool
  std::size_t written = 0;       // chunks appended to the archive
  // The rows of the next chunk while it is incomplete: a std::vector<T>.
  std::shared_ptr<void> partial;
  std::size_t partial_rows = 0;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<std::uint8_t>> streams;  // per chunk, until written
  std::vector<ChunkSummary> summaries;
  std::vector<char> done;
  std::exception_ptr err;  // first chunk task failure

  std::size_t num_chunks() const { return done.size(); }
  std::size_t chunk_rows(std::size_t i) const {
    return std::min(rows_per_chunk,
                    info.dims[0] - i * rows_per_chunk);
  }

  /// Compress chunk `submitted` from `rows` on the shared pool. `keep`
  /// owns the rows when they are a buffered copy; otherwise the caller
  /// must not return before the chunk is done.
  template <typename T>
  static void submit(const std::shared_ptr<OpenDataset>& self,
                     std::span<const T> rows, std::shared_ptr<void> keep) {
    const std::size_t i = self->submitted++;
    global_pool().submit([self, i, rows, keep = std::move(keep)] {
      try {
        Dims cdims = self->info.dims;
        cdims.d[0] = self->chunk_rows(i);
        // Summaries describe what a reader will reconstruct, not the
        // input, so query answers match decompress-then-scan bit for bit.
        // The compressor hands that reconstruction back: the SZ family's
        // encoder already holds it, the other schemes decode their stream.
        std::vector<T> rec;
        auto stream = make_compressor(self->opts.scheme)
                          ->compress(rows, cdims, self->opts.params,
                                     self->opts.summaries ? &rec : nullptr);
        ChunkSummary summary;
        if (self->opts.summaries)
          summary = summarize_values<T>(std::span<const T>(rec));
        std::lock_guard<std::mutex> lock(self->mu);
        self->streams[i] = std::move(stream);
        self->summaries[i] = summary;
        self->done[i] = 1;
        self->cv.notify_all();
      } catch (...) {
        std::lock_guard<std::mutex> lock(self->mu);
        if (!self->err) self->err = std::current_exception();
        self->done[i] = 1;
        self->cv.notify_all();
      }
    });
  }
};

void ArchiveWriter::require_no_open_dataset(const char* verb) const {
  if (open_)
    throw ParamError(std::string("archive: ") + verb + " while dataset " +
                     open_->info.name + " is open");
}

template <typename T>
void ArchiveWriter::begin_dataset(const std::string& name, Dims dims,
                                  const DatasetOptions& opts) {
  require_usable("begin_dataset");
  require_no_open_dataset("begin_dataset");
  check_new_name(name);
  dims.validate();

  auto ds = std::make_shared<OpenDataset>();
  ds->info.name = name;
  ds->info.dtype = data_type_of<T>();
  ds->info.scheme = opts.scheme;
  ds->info.dims = dims;
  ds->info.bound = opts.params.bound;
  ds->info.log_base = opts.params.log_base;
  ds->opts = opts;
  const std::size_t rows = dims[0];
  const std::size_t threads = std::min(resolve_threads(opts.threads), rows);
  ds->row_elems = dims.count() / rows;
  ds->rows_per_chunk = opts.rows_per_chunk
                           ? std::min(opts.rows_per_chunk, rows)
                           : (rows + threads - 1) / threads;
  ds->max_buffered = threads;
  const std::size_t nchunks =
      (rows + ds->rows_per_chunk - 1) / ds->rows_per_chunk;
  ds->streams.resize(nchunks);
  ds->summaries.resize(nchunks);
  ds->done.assign(nchunks, 0);
  open_ = std::move(ds);
}

template <typename T>
void ArchiveWriter::append_rows(std::span<const T> rows) {
  require_usable("append_rows");
  if (!open_) throw ParamError("archive: append_rows without begin_dataset");
  OpenDataset& ds = *open_;
  if (ds.info.dtype != data_type_of<T>())
    throw ParamError("archive: append_rows data type does not match " +
                     ds.info.name);
  if (rows.size() % ds.row_elems != 0)
    throw ParamError("archive: append_rows size must be whole rows");
  const std::size_t n_rows = rows.size() / ds.row_elems;
  if (n_rows > ds.info.dims[0] - ds.rows_seen)
    throw ParamError("archive: more rows than dataset " + ds.info.name +
                     " holds");
  ds.rows_seen += n_rows;

  std::size_t at = 0;  // rows of `rows` consumed
  auto take = [&](std::size_t count) {
    auto out = rows.subspan(at * ds.row_elems, count * ds.row_elems);
    at += count;
    return out;
  };
  // Top up a partial chunk first; once complete it compresses from the
  // buffer, which its task then owns.
  if (ds.partial_rows) {
    auto& buf = *static_cast<std::vector<T>*>(ds.partial.get());
    const std::size_t count = std::min(
        ds.chunk_rows(ds.submitted) - ds.partial_rows, n_rows);
    auto more = take(count);
    buf.insert(buf.end(), more.begin(), more.end());
    ds.partial_rows += count;
    if (ds.partial_rows == ds.chunk_rows(ds.submitted)) {
      OpenDataset::submit<T>(open_, std::span<const T>(buf),
                             std::move(ds.partial));
      ds.partial_rows = 0;
    }
  }
  // Complete chunks compress straight from the caller's memory.
  const std::size_t borrowed_from = ds.submitted;
  while (ds.submitted < ds.num_chunks() &&
         n_rows - at >= ds.chunk_rows(ds.submitted))
    OpenDataset::submit<T>(open_, take(ds.chunk_rows(ds.submitted)), nullptr);
  const bool borrowed = ds.submitted != borrowed_from;
  if (at < n_rows) {
    auto rest = take(n_rows - at);
    auto buf = std::make_shared<std::vector<T>>();
    buf->reserve(ds.chunk_rows(ds.submitted) * ds.row_elems);
    buf->assign(rest.begin(), rest.end());
    ds.partial_rows = rest.size() / ds.row_elems;
    ds.partial = std::move(buf);
  }
  // Return only once no task reads `rows`; otherwise just bound the
  // buffered chunks still in flight.
  write_chunks(borrowed ? ds.submitted
                        : ds.submitted - std::min(ds.submitted,
                                                  ds.max_buffered));
}

std::size_t ArchiveWriter::rows_remaining() const {
  return open_ ? open_->info.dims[0] - open_->rows_seen : 0;
}

void ArchiveWriter::write_chunks(std::size_t must) {
  OpenDataset& ds = *open_;
  std::exception_ptr err;
  for (; ds.written < ds.submitted; ++ds.written) {
    const std::size_t i = ds.written;
    std::vector<std::uint8_t> stream;
    {
      std::unique_lock<std::mutex> lock(ds.mu);
      if (i >= must && !ds.done[i]) break;
      ds.cv.wait(lock, [&] { return ds.done[i] != 0; });
      if (ds.err) {
        err = ds.err;
        break;
      }
      stream = std::move(ds.streams[i]);
    }
    ChunkInfo c;
    c.rows = ds.chunk_rows(i);
    c.offset = offset_;
    c.size = stream.size();
    c.checksum = fnv1a64(stream);
    try {
      append(stream);
    } catch (...) {
      err = std::current_exception();
      break;
    }
    obs::counter_add("archive.chunks_written");
    obs::counter_add("archive.bytes_written", c.size);
    ds.info.chunks.push_back(c);
  }
  if (!err) return;
  // Chunks may have been partially appended; the byte stream no longer
  // matches any directory we could write, so the archive is abandoned.
  // Every submitted task must finish first: some may read caller memory.
  {
    std::unique_lock<std::mutex> lock(ds.mu);
    ds.cv.wait(lock, [&] {
      return std::all_of(ds.done.begin(),
                         ds.done.begin() +
                             static_cast<std::ptrdiff_t>(ds.submitted),
                         [](char d) { return d != 0; });
    });
  }
  failed_ = true;
  open_.reset();
  std::rethrow_exception(err);
}

void ArchiveWriter::end_dataset() {
  require_usable("end_dataset");
  if (!open_) throw ParamError("archive: end_dataset without begin_dataset");
  if (rows_remaining() != 0)
    throw ParamError("archive: dataset " + open_->info.name +
                     " incomplete (" + std::to_string(rows_remaining()) +
                     " rows missing)");
  write_chunks(open_->num_chunks());
  DatasetInfo info = std::move(open_->info);
  if (open_->opts.summaries) {
    obs::counter_add("archive.summary_chunks", open_->num_chunks());
    info.summaries = std::move(open_->summaries);
  }
  open_.reset();
  directory_.push_back(std::move(info));
}

template <typename T>
void ArchiveWriter::add_dataset(const std::string& name,
                                std::span<const T> data, Dims dims,
                                const DatasetOptions& opts) {
  dims.validate();
  if (data.size() != dims.count())
    throw ParamError("archive: data size does not match dims");
  obs::Span root_span("archive.add_dataset");
  begin_dataset<T>(name, dims, opts);
  append_rows<T>(data);
  end_dataset();
}

void ArchiveWriter::add_compressed(const std::string& name, DataType dtype,
                                   Scheme scheme, Dims dims, double bound,
                                   double log_base,
                                   std::span<const std::uint8_t> stream) {
  require_usable("add_compressed");
  require_no_open_dataset("add_compressed");
  check_new_name(name);
  dims.validate();
  if (stream.empty()) throw ParamError("archive: empty compressed stream");

  DatasetInfo info;
  info.name = name;
  info.dtype = dtype;
  info.scheme = scheme;
  info.dims = dims;
  info.bound = bound;
  info.log_base = log_base;
  ChunkInfo c;
  c.rows = dims[0];
  c.offset = offset_;
  c.size = stream.size();
  c.checksum = fnv1a64(stream);
  try {
    append(stream);
  } catch (...) {
    failed_ = true;
    throw;
  }
  info.chunks.push_back(c);
  directory_.push_back(std::move(info));
}

void ArchiveWriter::finish() {
  require_usable("finish");
  require_no_open_dataset("finish");
  obs::Span root_span("archive.finish");
  auto footer = serialize_footer(directory_);
  ByteWriter trailer;
  trailer.put(fnv1a64(footer));
  trailer.put(static_cast<std::uint64_t>(footer.size()));
  trailer.put(kEndMagic);
  auto trailer_bytes = trailer.take();
  try {
    append(footer);
    append(trailer_bytes);
  } catch (...) {
    failed_ = true;
    throw;
  }
  if (file_) {
    bool flushed = std::fflush(file_) == 0;
    std::fclose(file_);
    file_ = nullptr;
    if (!flushed || std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
      failed_ = true;
      std::remove(tmp_path_.c_str());
      throw StreamError("archive: cannot finalize " + path_);
    }
  }
  finished_ = true;
}

template void ArchiveWriter::add_dataset<float>(const std::string&,
                                                std::span<const float>, Dims,
                                                const DatasetOptions&);
template void ArchiveWriter::add_dataset<double>(const std::string&,
                                                 std::span<const double>,
                                                 Dims, const DatasetOptions&);
template void ArchiveWriter::begin_dataset<float>(const std::string&, Dims,
                                                  const DatasetOptions&);
template void ArchiveWriter::begin_dataset<double>(const std::string&, Dims,
                                                   const DatasetOptions&);
template void ArchiveWriter::append_rows<float>(std::span<const float>);
template void ArchiveWriter::append_rows<double>(std::span<const double>);

// --- ArchiveReader ----------------------------------------------------------

namespace {

/// Running total of bytes this process has mmap'ed for TPAR archives,
/// mirrored into the `archive.mapped_bytes` gauge on every open/close.
std::atomic<std::uint64_t> g_mapped_bytes{0};

bool mmap_allowed() {
  return env::checked_u64("TRANSPWR_ARCHIVE_MMAP",
                          {/*min=*/0, /*max=*/1, /*clamp=*/false})
             .value_or(1) != 0;
}

}  // namespace

ArchiveReader::ArchiveReader(const std::string& path) {
  try {
    file_ = MappedFile(path, mmap_allowed());
  } catch (const StreamError&) {
    throw StreamError("archive: cannot open " + path);
  }
  size_ = file_.size();
  view_ = file_.view();
  parse_footer();
  cache_id_ = file_archive_id(file_.device(), file_.inode(), size_,
                              file_.mtime_ns());
  if (file_.mapped()) {
    obs::gauge_set("archive.mapped_bytes",
                   static_cast<double>(g_mapped_bytes.fetch_add(
                                           size_, std::memory_order_relaxed) +
                                       size_));
  }
}

ArchiveReader::ArchiveReader(std::span<const std::uint8_t> bytes)
    : view_(bytes), size_(bytes.size()), cache_id_(memory_archive_id()) {
  parse_footer();
}

ArchiveReader::~ArchiveReader() {
  if (file_.mapped()) {
    obs::gauge_set("archive.mapped_bytes",
                   static_cast<double>(g_mapped_bytes.fetch_sub(
                                           size_, std::memory_order_relaxed) -
                                       size_));
  }
}

void ArchiveReader::parse_footer() {
  if (size_ < kHeadSize + kTrailerSize)
    throw StreamError("archive: file too small to be a TPAR archive");

  // Zero-copy modes parse head/trailer/footer in place; the pread
  // fallback copies just those framing regions (never the payload).
  std::vector<std::uint8_t> head_buf, trailer_buf, footer_buf;
  auto fetch = [&](std::uint64_t offset, std::uint64_t len,
                   std::vector<std::uint8_t>& buf,
                   const char* what) -> std::span<const std::uint8_t> {
    if (!view_.empty())
      return view_.subspan(static_cast<std::size_t>(offset),
                           static_cast<std::size_t>(len));
    check_decode_alloc(static_cast<std::size_t>(len), 1, "archive");
    buf.resize(static_cast<std::size_t>(len));
    file_.read_at(offset, buf, what);
    return buf;
  };

  auto head = fetch(0, kHeadSize, head_buf, "header");
  ByteReader hin(head);
  if (hin.get<std::uint32_t>() != kMagic)
    throw StreamError("archive: bad magic (not a TPAR archive)");
  version_ = hin.get<std::uint32_t>();
  if (version_ != kVersionV1 && version_ != kWriterVersion)
    throw StreamError("archive: unsupported version");

  auto trailer = fetch(size_ - kTrailerSize, kTrailerSize, trailer_buf,
                       "trailer");
  ByteReader tin(trailer);
  auto footer_sum = tin.get<std::uint64_t>();
  auto footer_size = tin.get<std::uint64_t>();
  if (tin.get<std::uint32_t>() != kEndMagic)
    throw StreamError("archive: bad end magic (truncated archive?)");
  if (footer_size > size_ - kHeadSize - kTrailerSize)
    throw StreamError("archive: footer size exceeds the file");
  const std::uint64_t footer_start = size_ - kTrailerSize - footer_size;
  auto footer = fetch(footer_start, footer_size, footer_buf, "footer");
  if (fnv1a64(footer) != footer_sum)
    throw StreamError("archive: footer checksum mismatch (corrupt archive)");
  directory_ = parse_directory(footer, footer_start, version_);

  // Lay out the lazy-verification bitmap: one bit per chunk, flattened in
  // directory order. All bits start unverified; chunk counts were already
  // bounded by the footer size, so this allocation is footer-sized at
  // worst.
  chunk_bit_base_.clear();
  chunk_bit_base_.reserve(directory_.size());
  std::size_t total_chunks = 0;
  for (const auto& ds : directory_) {
    chunk_bit_base_.push_back(total_chunks);
    total_chunks += ds.chunks.size();
  }
  verified_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      (total_chunks + 63) / 64);
}

bool ArchiveReader::chunk_verified(std::size_t flat_index) const {
  return (verified_[flat_index / 64].load(std::memory_order_acquire) >>
          (flat_index % 64)) &
         1u;
}

void ArchiveReader::mark_chunk_verified(std::size_t flat_index) {
  verified_[flat_index / 64].fetch_or(std::uint64_t{1} << (flat_index % 64),
                                      std::memory_order_release);
}

std::size_t ArchiveReader::dataset_index(const std::string& name) const {
  for (std::size_t d = 0; d < directory_.size(); ++d)
    if (directory_[d].name == name) return d;
  throw ParamError("archive: no dataset named " + name);
}

const DatasetInfo& ArchiveReader::dataset(const std::string& name) const {
  return directory_[dataset_index(name)];
}

ArchiveReader::ChunkBytes ArchiveReader::chunk_bytes(std::size_t ds_index,
                                                     std::size_t chunk) {
  const DatasetInfo& ds = directory_[ds_index];
  const ChunkInfo& c = ds.chunks[chunk];
  ChunkBytes out;
  if (!view_.empty()) {
    // Extents were validated to tile [head, footer) at open, so this
    // subspan cannot run off the mapping.
    out.bytes = view_.subspan(static_cast<std::size_t>(c.offset),
                              static_cast<std::size_t>(c.size));
  } else {
    check_decode_alloc(static_cast<std::size_t>(c.size), 1, "archive");
    out.owned.resize(static_cast<std::size_t>(c.size));
    file_.read_at(c.offset, out.owned, "chunk");
    out.bytes = out.owned;
  }
  const std::size_t flat = chunk_bit_base_[ds_index] + chunk;
  if (chunk_verified(flat)) {
    obs::counter_add("archive.verify_skips");
  } else {
    // First touch: verify now, remember only success — a corrupt chunk
    // must fail on every touch, so a failed verdict is never recorded.
    if (fnv1a64(out.bytes) != c.checksum) {
      obs::counter_add("archive.checksum_mismatches");
      throw StreamError("archive: dataset " + ds.name + " chunk " +
                        std::to_string(chunk) +
                        " checksum mismatch (corrupt archive)");
    }
    obs::counter_add("archive.lazy_verifies");
    mark_chunk_verified(flat);
  }
  obs::counter_add("archive.chunks_read");
  return out;
}

std::vector<std::uint8_t> ArchiveReader::read_chunk_bytes(
    const std::string& name, std::size_t chunk) {
  const std::size_t di = dataset_index(name);
  if (chunk >= directory_[di].chunks.size())
    throw ParamError("archive: chunk index out of range for " + name);
  auto cb = chunk_bytes(di, chunk);
  return std::vector<std::uint8_t>(cb.bytes.begin(), cb.bytes.end());
}

namespace {

/// Decode one verified chunk stream and check its shape against the
/// directory row count.
template <typename T>
std::vector<T> decode_chunk(const DatasetInfo& ds, std::size_t chunk,
                            std::span<const std::uint8_t> bytes,
                            Dims* dims_out) {
  Dims want = ds.dims;
  want.d[0] = static_cast<std::size_t>(ds.chunks[chunk].rows);
  auto comp = make_compressor(ds.scheme);
  Dims got;
  std::vector<T> data;
  if constexpr (std::is_same_v<T, float>)
    data = comp->decompress_f32(bytes, &got);
  else
    data = comp->decompress_f64(bytes, &got);
  if (!(got == want) || data.size() != want.count())
    throw StreamError("archive: dataset " + ds.name + " chunk " +
                      std::to_string(chunk) +
                      " shape does not match the directory");
  if (dims_out) *dims_out = got;
  return data;
}

}  // namespace

template <typename T>
void ArchiveReader::copy_chunk_elems(std::size_t ds_index, std::size_t chunk,
                                     std::size_t elem_begin,
                                     std::size_t elem_count,
                                     std::uint8_t* dst) {
  const DatasetInfo& ds = directory_[ds_index];
  const ChunkInfo& c = ds.chunks[chunk];
  ChunkCache& cache = ChunkCache::instance();
  const ChunkKey key{cache_id_, static_cast<std::uint32_t>(ds_index),
                     static_cast<std::uint32_t>(chunk), c.checksum};
  if (auto hit = cache.get(key)) {
    std::memcpy(dst, hit->data() + elem_begin * sizeof(T),
                elem_count * sizeof(T));
    return;
  }
  auto cb = chunk_bytes(ds_index, chunk);
  auto data = decode_chunk<T>(ds, chunk, cb.bytes, nullptr);
  std::memcpy(dst, data.data() + elem_begin, elem_count * sizeof(T));
  if (cache.capacity() != 0) {
    const auto* raw = reinterpret_cast<const std::uint8_t*>(data.data());
    cache.put(key, std::make_shared<std::vector<std::uint8_t>>(
                       raw, raw + data.size() * sizeof(T)));
  }
}

template <typename T>
void ArchiveReader::copy_rows(std::size_t ds_index, std::size_t row_begin,
                              std::size_t row_end, std::uint8_t* dst,
                              std::size_t threads) {
  const DatasetInfo& ds = directory_[ds_index];
  const std::size_t row_elems = ds.dims.count() / ds.dims[0];

  // Chunks overlapping the row range; only these are touched (and thus
  // lazily checksummed). I/O, verification, and decode all happen inside
  // the workers: chunk bytes come from the mapping (or positional reads)
  // with no shared seek position, so nothing below serializes.
  struct Wanted {
    std::size_t chunk;
    std::size_t chunk_row_begin;
  };
  std::vector<Wanted> wanted;
  std::size_t at = 0;
  for (std::size_t i = 0; i < ds.chunks.size(); ++i) {
    const std::size_t rows = static_cast<std::size_t>(ds.chunks[i].rows);
    if (at < row_end && at + rows > row_begin) wanted.push_back({i, at});
    at += rows;
  }

  ParallelOptions opts;
  opts.max_threads = resolve_threads(threads);
  opts.grain = 1;
  parallel_for(
      wanted.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t w = begin; w < end; ++w) {
          const Wanted& item = wanted[w];
          const std::size_t rows =
              static_cast<std::size_t>(ds.chunks[item.chunk].rows);
          const std::size_t from = std::max(item.chunk_row_begin, row_begin);
          const std::size_t to =
              std::min(item.chunk_row_begin + rows, row_end);
          copy_chunk_elems<T>(
              ds_index, item.chunk, (from - item.chunk_row_begin) * row_elems,
              (to - from) * row_elems,
              dst + (from - row_begin) * row_elems * sizeof(T));
        }
      },
      opts);
}

template <typename T>
std::vector<T> ArchiveReader::load(const std::string& name, Dims* dims_out,
                                   std::size_t threads) {
  obs::Span root_span("archive.load");
  const std::size_t di = dataset_index(name);
  const DatasetInfo& ds = directory_[di];
  if (ds.dtype != data_type_of<T>())
    throw StreamError("archive: dataset " + name +
                      " data type does not match");
  const std::size_t n = checked_count(ds.dims, "archive");
  check_decode_alloc(n, sizeof(T), "archive");
  if (dims_out) *dims_out = ds.dims;
  std::vector<T> out(n);
  copy_rows<T>(di, 0, ds.dims[0], reinterpret_cast<std::uint8_t*>(out.data()),
               threads);
  return out;
}

template <typename T>
std::vector<T> ArchiveReader::load_chunk(const std::string& name,
                                         std::size_t chunk,
                                         Dims* chunk_dims_out) {
  const std::size_t di = dataset_index(name);
  const DatasetInfo& ds = directory_[di];
  if (ds.dtype != data_type_of<T>())
    throw StreamError("archive: dataset " + name +
                      " data type does not match");
  if (chunk >= ds.chunks.size())
    throw ParamError("archive: chunk index out of range for " + name);
  Dims cdims = ds.dims;
  cdims.d[0] = static_cast<std::size_t>(ds.chunks[chunk].rows);
  check_decode_alloc(cdims.count(), sizeof(T), "archive");
  std::vector<T> out(cdims.count());
  copy_chunk_elems<T>(di, chunk, 0, out.size(),
                      reinterpret_cast<std::uint8_t*>(out.data()));
  if (chunk_dims_out) *chunk_dims_out = cdims;
  return out;
}

Dims ArchiveReader::rows_dims(const std::string& name, std::size_t row_begin,
                              std::size_t row_end) const {
  const DatasetInfo& ds = directory_[dataset_index(name)];
  if (row_begin >= row_end || row_end > ds.dims[0])
    throw ParamError("archive: row range out of bounds");
  Dims roi = ds.dims;
  roi.d[0] = row_end - row_begin;
  check_decode_alloc(roi.count(), size_of(ds.dtype), "archive");
  return roi;
}

void ArchiveReader::read_rows_into(const std::string& name,
                                   std::size_t row_begin, std::size_t row_end,
                                   std::span<std::uint8_t> dst,
                                   std::size_t threads) {
  obs::Span root_span("archive.read_rows");
  const std::size_t di = dataset_index(name);
  const DataType dtype = directory_[di].dtype;
  if (dst.size() != rows_dims(name, row_begin, row_end).count() *
                        size_of(dtype))
    throw ParamError("archive: read_rows_into buffer does not match the "
                     "row range");
  if (dtype == DataType::kFloat32)
    copy_rows<float>(di, row_begin, row_end, dst.data(), threads);
  else
    copy_rows<double>(di, row_begin, row_end, dst.data(), threads);
}

template <typename T>
std::vector<T> ArchiveReader::read_rows(const std::string& name,
                                        std::size_t row_begin,
                                        std::size_t row_end,
                                        Dims* roi_dims_out,
                                        std::size_t threads) {
  if (dataset(name).dtype != data_type_of<T>())
    throw StreamError("archive: dataset " + name +
                      " data type does not match");
  const Dims roi = rows_dims(name, row_begin, row_end);
  if (roi_dims_out) *roi_dims_out = roi;
  std::vector<T> out(roi.count());
  read_rows_into(name, row_begin, row_end,
                 {reinterpret_cast<std::uint8_t*>(out.data()),
                  out.size() * sizeof(T)},
                 threads);
  return out;
}

void ArchiveReader::verify() {
  obs::Span root_span("archive.verify");
  std::vector<std::uint8_t> scratch;  // pread fallback only
  for (std::size_t d = 0; d < directory_.size(); ++d) {
    const auto& ds = directory_[d];
    for (std::size_t i = 0; i < ds.chunks.size(); ++i) {
      const ChunkInfo& c = ds.chunks[i];
      std::span<const std::uint8_t> bytes;
      if (!view_.empty()) {
        bytes = view_.subspan(static_cast<std::size_t>(c.offset),
                              static_cast<std::size_t>(c.size));
      } else {
        check_decode_alloc(static_cast<std::size_t>(c.size), 1, "archive");
        scratch.resize(static_cast<std::size_t>(c.size));
        file_.read_at(c.offset, scratch, "chunk");
        bytes = scratch;
      }
      if (fnv1a64(bytes) != c.checksum) {
        obs::counter_add("archive.checksum_mismatches");
        throw StreamError("archive: dataset " + ds.name + " chunk " +
                          std::to_string(i) +
                          " checksum mismatch (corrupt archive)");
      }
      // The eager scan proved this chunk good; later loads can skip it.
      mark_chunk_verified(chunk_bit_base_[d] + i);
    }
  }
}

template std::vector<float> ArchiveReader::load<float>(const std::string&,
                                                       Dims*, std::size_t);
template std::vector<double> ArchiveReader::load<double>(const std::string&,
                                                         Dims*, std::size_t);
template std::vector<float> ArchiveReader::load_chunk<float>(
    const std::string&, std::size_t, Dims*);
template std::vector<double> ArchiveReader::load_chunk<double>(
    const std::string&, std::size_t, Dims*);
template std::vector<float> ArchiveReader::read_rows<float>(
    const std::string&, std::size_t, std::size_t, Dims*, std::size_t);
template std::vector<double> ArchiveReader::read_rows<double>(
    const std::string&, std::size_t, std::size_t, Dims*, std::size_t);

}  // namespace store
}  // namespace transpwr
