#include "store/archive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "compat/golden_fields.h"
#include "data/generators.h"
#include "metrics/metrics.h"
#include "obs/obs.h"
#include "store/chunk_cache.h"

namespace transpwr {
namespace store {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// Every registered scheme must survive a write + load through the archive
// and keep the guarantee class it advertises (the conformance taxonomy):
// pointwise relative for the transformed schemes, FPZIP and ISABELA;
// absolute for SZ_ABS; relative-on-nonzeros for SZ_PWR; finite output and
// shape only for ZFP_P.
TEST(Archive, RoundTripEveryScheme) {
  auto f = gen::nyx_dark_matter_density(Dims(16, 12, 12), 7);
  for (Scheme s : all_schemes()) {
    SCOPED_TRACE(scheme_name(s));
    const double bound = s == Scheme::kSzAbs ? 1.0 : 1e-2;
    std::vector<std::uint8_t> buf;
    {
      ArchiveWriter w(&buf);
      DatasetOptions opts;
      opts.scheme = s;
      opts.params.bound = bound;
      opts.rows_per_chunk = 5;  // 16 rows -> 4 chunks, last one short
      w.add_dataset<float>("field", f.span(), f.dims, opts);
      w.finish();
    }
    ArchiveReader r(buf);
    ASSERT_EQ(r.datasets().size(), 1u);
    EXPECT_EQ(r.dataset("field").scheme, s);
    EXPECT_EQ(r.dataset("field").chunks.size(), 4u);
    EXPECT_DOUBLE_EQ(r.dataset("field").bound, bound);
    Dims dims;
    auto out = r.load<float>("field", &dims);
    EXPECT_EQ(dims, f.dims);
    ASSERT_EQ(out.size(), f.values.size());
    for (float v : out) ASSERT_TRUE(std::isfinite(v));
    auto stats = compute_error_stats(f.span(), std::span<const float>(out));
    if (s == Scheme::kSzAbs) {
      EXPECT_LE(stats.max_abs, bound);
    } else if (s == Scheme::kSzPwr) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (f.values[i] != 0.0f) {
          ASSERT_LE(std::abs(out[i] - f.values[i]),
                    bound * std::abs(f.values[i]) * (1 + 1e-6))
              << i;
        }
      }
    } else if (s != Scheme::kZfpP) {
      EXPECT_LE(stats.max_rel, bound * (1 + 1e-6));
    }
  }
}

TEST(Archive, MultipleDatasetsMixedTypes) {
  auto f32 = gen::cesm_flux(Dims(30, 16), 3);
  std::vector<double> f64(512);
  for (std::size_t i = 0; i < f64.size(); ++i)
    f64[i] = 1e4 + std::sin(0.02 * static_cast<double>(i));

  std::vector<std::uint8_t> buf;
  {
    ArchiveWriter w(&buf);
    DatasetOptions o32;
    o32.scheme = Scheme::kSzT;
    o32.params.bound = 1e-3;
    w.add_dataset<float>("flux", f32.span(), f32.dims, o32);
    DatasetOptions o64;
    o64.scheme = Scheme::kSzT;
    o64.params.bound = 1e-6;
    o64.rows_per_chunk = 100;
    w.add_dataset<double>("pressure", f64, Dims(512), o64);
    EXPECT_EQ(w.datasets(), 2u);
    w.finish();
  }

  ArchiveReader r(buf);
  ASSERT_EQ(r.datasets().size(), 2u);
  EXPECT_EQ(r.dataset("flux").dtype, DataType::kFloat32);
  EXPECT_EQ(r.dataset("pressure").dtype, DataType::kFloat64);
  EXPECT_EQ(r.dataset("pressure").chunks.size(), 6u);  // ceil(512/100)
  r.verify();

  auto flux = r.load<float>("flux");
  auto stats32 =
      compute_error_stats(f32.span(), std::span<const float>(flux));
  EXPECT_LE(stats32.max_rel, 1e-3 * (1 + 1e-6));

  auto pressure = r.load<double>("pressure");
  auto stats64 = compute_error_stats(std::span<const double>(f64),
                                     std::span<const double>(pressure));
  EXPECT_LE(stats64.max_rel, 1e-6 * (1 + 1e-9));
}

TEST(Archive, ReadRowsMatchesFullLoad) {
  auto f = gen::hurricane_wind(Dims(26, 10, 10), 9);
  std::vector<std::uint8_t> buf;
  {
    ArchiveWriter w(&buf);
    DatasetOptions opts;
    opts.scheme = Scheme::kSzT;
    opts.params.bound = 1e-2;
    opts.rows_per_chunk = 7;  // 26 rows -> chunks of 7,7,7,5
    w.add_dataset<float>("wind", f.span(), f.dims, opts);
    w.finish();
  }
  ArchiveReader r(buf);
  auto full = r.load<float>("wind");
  const std::size_t row = 100;
  for (auto [b, e] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 26}, {0, 1}, {6, 8}, {7, 7 + 1}, {21, 22}, {25, 26},
           {3, 24}}) {
    SCOPED_TRACE(b);
    Dims roi;
    auto rows = r.read_rows<float>("wind", b, e, &roi);
    EXPECT_EQ(roi[0], e - b);
    EXPECT_EQ(roi[1], 10u);
    ASSERT_EQ(rows.size(), (e - b) * row);
    for (std::size_t i = 0; i < rows.size(); ++i)
      ASSERT_EQ(rows[i], full[b * row + i]) << i;
  }
}

TEST(Archive, LoadChunkReturnsTheChunkShape) {
  auto f = gen::cesm_cloud_fraction(Dims(20, 8), 5);
  std::vector<std::uint8_t> buf;
  {
    ArchiveWriter w(&buf);
    DatasetOptions opts;
    opts.scheme = Scheme::kSzAbs;
    opts.params.bound = 1e-3;
    opts.rows_per_chunk = 8;  // 8, 8, 4
    w.add_dataset<float>("cloud", f.span(), f.dims, opts);
    w.finish();
  }
  ArchiveReader r(buf);
  auto full = r.load<float>("cloud");
  std::size_t at = 0;
  for (std::size_t c = 0; c < r.dataset("cloud").chunks.size(); ++c) {
    Dims cd;
    auto part = r.load_chunk<float>("cloud", c, &cd);
    EXPECT_EQ(cd[1], 8u);
    ASSERT_EQ(part.size(), cd[0] * 8);
    for (std::size_t i = 0; i < part.size(); ++i)
      ASSERT_EQ(part[i], full[at + i]);
    at += part.size();
  }
  EXPECT_EQ(at, full.size());
}

TEST(Archive, AddCompressedMatchesDirectDecompress) {
  auto f = gen::hacc_velocity(2000, 11);
  CompressorParams params;
  params.bound = 1e-2;
  auto comp = make_compressor(Scheme::kSzT);
  auto stream = comp->compress(f.span(), f.dims, params);
  auto direct = comp->decompress_f32(stream);

  std::vector<std::uint8_t> buf;
  {
    ArchiveWriter w(&buf);
    w.add_compressed("rank_0", DataType::kFloat32, Scheme::kSzT, f.dims,
                     params.bound, params.log_base, stream);
    w.finish();
  }
  ArchiveReader r(buf);
  EXPECT_EQ(r.read_chunk_bytes("rank_0", 0), stream);
  EXPECT_EQ(r.load<float>("rank_0"), direct);
  EXPECT_FALSE(r.dataset("rank_0").has_summaries());
}

TEST(Archive, WriterRejectsBadInput) {
  auto f = gen::hacc_velocity(64, 1);
  std::vector<std::uint8_t> buf;
  ArchiveWriter w(&buf);
  DatasetOptions opts;
  opts.scheme = Scheme::kSzAbs;
  EXPECT_THROW(w.add_dataset<float>("", f.span(), f.dims, opts), ParamError);
  EXPECT_THROW(
      w.add_dataset<float>(std::string(300, 'x'), f.span(), f.dims, opts),
      ParamError);
  EXPECT_THROW(w.add_dataset<float>("short", f.span(), Dims(65), opts),
               ParamError);
  w.add_dataset<float>("v", f.span(), f.dims, opts);
  EXPECT_THROW(w.add_dataset<float>("v", f.span(), f.dims, opts),
               ParamError);  // duplicate name
  EXPECT_THROW(
      w.add_compressed("e", DataType::kFloat32, Scheme::kSzT, f.dims, 0, 2,
                       {}),
      ParamError);  // empty stream
  w.finish();
  EXPECT_THROW(w.add_dataset<float>("late", f.span(), f.dims, opts),
               ParamError);
  EXPECT_THROW(w.finish(), ParamError);
}

TEST(Archive, EmptyArchiveRoundTrips) {
  std::vector<std::uint8_t> buf;
  {
    ArchiveWriter w(&buf);
    w.finish();
  }
  ArchiveReader r(buf);
  EXPECT_TRUE(r.datasets().empty());
  r.verify();
  EXPECT_THROW(r.dataset("anything"), ParamError);
}

TEST(Archive, ReaderRejectsBadRequests) {
  auto f = gen::hacc_velocity(128, 2);
  std::vector<std::uint8_t> buf;
  {
    ArchiveWriter w(&buf);
    DatasetOptions opts;
    opts.scheme = Scheme::kSzT;
    opts.params.bound = 1e-2;
    opts.rows_per_chunk = 64;
    w.add_dataset<float>("v", f.span(), f.dims, opts);
    w.finish();
  }
  ArchiveReader r(buf);
  EXPECT_THROW(r.load<float>("missing"), ParamError);
  EXPECT_THROW(r.load<double>("v"), StreamError);  // dtype mismatch
  EXPECT_THROW(r.load_chunk<float>("v", 2), ParamError);
  EXPECT_THROW(r.read_rows<float>("v", 5, 5), ParamError);   // empty
  EXPECT_THROW(r.read_rows<float>("v", 9, 4), ParamError);   // inverted
  EXPECT_THROW(r.read_rows<float>("v", 0, 129), ParamError);  // past end
}

// File mode: bytes stream into `<path>.part` and only a successful finish()
// renames them onto the real path, so a crashed writer never leaves a
// readable-looking torn archive and an abandoned writer cleans up after
// itself.
TEST(Archive, CrashSafeFinalize) {
  const std::string path = temp_path("crash_safe.tpar");
  const std::string part = path + ".part";
  std::remove(path.c_str());
  auto f = gen::hacc_velocity(256, 3);
  DatasetOptions opts;
  opts.scheme = Scheme::kSzT;
  opts.params.bound = 1e-2;

  {  // abandoned writer: .part existed mid-write, nothing survives
    ArchiveWriter w(path);
    w.add_dataset<float>("v", f.span(), f.dims, opts);
    EXPECT_TRUE(std::filesystem::exists(part));
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(part));
  EXPECT_FALSE(std::filesystem::exists(path));

  {  // finished writer: the final path appears, the partial file is gone
    ArchiveWriter w(path);
    w.add_dataset<float>("v", f.span(), f.dims, opts);
    w.finish();
  }
  EXPECT_FALSE(std::filesystem::exists(part));
  ASSERT_TRUE(std::filesystem::exists(path));

  ArchiveReader r(path);
  r.verify();
  auto out = r.load<float>("v");
  auto stats = compute_error_stats(f.span(), std::span<const float>(out));
  EXPECT_LE(stats.max_rel, 1e-2 * (1 + 1e-6));
  std::remove(path.c_str());
}

// File-backed and in-memory archives are byte-identical for the same
// inputs, so the fuzz/corpus coverage of the memory path covers the file
// path too.
TEST(Archive, FileAndMemoryModesProduceIdenticalBytes) {
  const std::string path = temp_path("identical.tpar");
  auto f = gen::cesm_flux(Dims(24, 12), 4);
  DatasetOptions opts;
  opts.scheme = Scheme::kSzT;
  opts.params.bound = 1e-3;
  opts.rows_per_chunk = 10;

  std::vector<std::uint8_t> mem;
  {
    ArchiveWriter w(&mem);
    w.add_dataset<float>("flux", f.span(), f.dims, opts);
    w.finish();
  }
  {
    ArchiveWriter w(path);
    w.add_dataset<float>("flux", f.span(), f.dims, opts);
    w.finish();
    EXPECT_EQ(w.bytes_written(), mem.size());
  }
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::vector<std::uint8_t> disk(mem.size() + 1);
  disk.resize(std::fread(disk.data(), 1, disk.size(), fp));
  std::fclose(fp);
  std::remove(path.c_str());
  EXPECT_EQ(disk, mem);
}

TEST(Archive, ParallelLoadMatchesSerial) {
  // Cache off: the parallel load must really decode, not replay the
  // serial load's cached chunks.
  ScopedCacheCapacity no_cache(0);
  auto f = gen::nyx_velocity(Dims(32, 12, 12), 13);
  std::vector<std::uint8_t> buf;
  {
    ArchiveWriter w(&buf);
    DatasetOptions opts;
    opts.scheme = Scheme::kSzT;
    opts.params.bound = 1e-2;
    opts.rows_per_chunk = 4;
    opts.threads = 4;
    w.add_dataset<float>("v", f.span(), f.dims, opts);
    w.finish();
  }
  ArchiveReader r(buf);
  EXPECT_EQ(r.dataset("v").chunks.size(), 8u);
  auto serial = r.load<float>("v", nullptr, 1);
  auto parallel = r.load<float>("v", nullptr, 4);
  EXPECT_EQ(serial, parallel);
}

// The three read transports — mmap view, positional-read fallback
// (TRANSPWR_ARCHIVE_MMAP=0), and the in-memory span — must hand back
// bit-identical data for every access pattern, with the fallback's
// parallel decode running lock-free on pread (no shared seek position).
TEST(Archive, MmapAndPreadFallbackProduceIdenticalData) {
  ScopedCacheCapacity no_cache(0);
  const std::string path = temp_path("transport.tpar");
  auto f = gen::nyx_velocity(Dims(24, 10, 10), 21);
  std::vector<std::uint8_t> mem;
  {
    ArchiveWriter w(&mem);
    DatasetOptions opts;
    opts.scheme = Scheme::kSzT;
    opts.params.bound = 1e-2;
    opts.rows_per_chunk = 5;
    w.add_dataset<float>("v", f.span(), f.dims, opts);
    w.finish();
  }
  std::filesystem::remove(path);
  {
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    ASSERT_EQ(std::fwrite(mem.data(), 1, mem.size(), fp), mem.size());
    std::fclose(fp);
  }

  std::vector<float> mapped_full, mapped_roi;
  {
    ArchiveReader r(path);
    EXPECT_TRUE(r.mapped());
    EXPECT_TRUE(r.zero_copy());
    mapped_full = r.load<float>("v", nullptr, 4);
    mapped_roi = r.read_rows<float>("v", 3, 14, nullptr, 4);
  }
  {
    ::setenv("TRANSPWR_ARCHIVE_MMAP", "0", 1);
    ArchiveReader r(path);
    ::unsetenv("TRANSPWR_ARCHIVE_MMAP");
    EXPECT_FALSE(r.mapped());
    EXPECT_FALSE(r.zero_copy());
    EXPECT_EQ(r.load<float>("v", nullptr, 4), mapped_full);
    EXPECT_EQ(r.load<float>("v", nullptr, 1), mapped_full);
    EXPECT_EQ(r.read_rows<float>("v", 3, 14, nullptr, 4), mapped_roi);
    r.verify();
  }
  {
    ArchiveReader r(mem);
    EXPECT_FALSE(r.mapped());
    EXPECT_TRUE(r.zero_copy());
    EXPECT_EQ(r.load<float>("v", nullptr, 2), mapped_full);
  }
  std::filesystem::remove(path);
}

// Pin the ROI edge semantics: the full range reproduces load() exactly,
// single-row reads work on both sides of every chunk seam and in the last
// chunk, and every malformed range is a ParamError (never an empty
// result) raised before any chunk is decoded.
TEST(Archive, ReadRowsEdgeCases) {
  auto f = gen::nyx_velocity(Dims(26, 6, 6), 31);
  std::vector<std::uint8_t> buf;
  {
    ArchiveWriter w(&buf);
    DatasetOptions opts;
    opts.params.bound = 1e-2;
    opts.rows_per_chunk = 7;  // 26 rows -> 7, 7, 7, 5
    opts.threads = 2;
    w.add_dataset<float>("v", f.span(), f.dims, opts);
    w.finish();
  }
  ArchiveReader r(buf);
  Dims full_dims, roi_dims;
  auto full = r.load<float>("v", &full_dims);
  EXPECT_EQ(r.read_rows<float>("v", 0, 26, &roi_dims), full);
  EXPECT_EQ(roi_dims, full_dims);

  const std::size_t row = 36;
  for (std::size_t b : {0u, 6u, 7u, 13u, 14u, 20u, 21u, 25u}) {
    SCOPED_TRACE(b);
    auto one = r.read_rows<float>("v", b, b + 1, &roi_dims, 2);
    EXPECT_EQ(roi_dims, Dims(1, 6, 6));
    ASSERT_EQ(one.size(), row);
    for (std::size_t i = 0; i < row; ++i)
      ASSERT_EQ(one[i], full[b * row + i]) << i;
  }
  auto last = r.read_rows<float>("v", 21, 26);
  EXPECT_TRUE(std::equal(last.begin(), last.end(), full.begin() + 21 * row));

  for (auto [b, e] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 0}, {26, 26}, {25, 27}, {26, 27}, {9, 4}, {0, SIZE_MAX}}) {
    SCOPED_TRACE(b);
    EXPECT_THROW(r.read_rows<float>("v", b, e), ParamError);
  }
}

TEST(Archive, AllDimensionalities) {
  auto f1 = gen::hacc_velocity(5000, 4);
  auto f2 = gen::cesm_cloud_fraction(Dims(50, 64), 5);
  auto f3 = gen::nyx_velocity(Dims(12, 16, 16), 6);
  for (const Field<float>* f : {&f1, &f2, &f3}) {
    SCOPED_TRACE(f->dims.to_string());
    std::vector<std::uint8_t> buf;
    {
      ArchiveWriter w(&buf);
      DatasetOptions opts;
      opts.params.bound = 1e-2;
      opts.rows_per_chunk = (f->dims[0] + 2) / 3;  // 3 chunks
      w.add_dataset<float>("f", f->span(), f->dims, opts);
      w.finish();
    }
    ArchiveReader r(buf);
    EXPECT_EQ(r.dataset("f").chunks.size(), 3u);
    Dims dims;
    auto out = r.load<float>("f", &dims);
    EXPECT_EQ(dims, f->dims);
    auto stats = compute_error_stats(f->span(), std::span<const float>(out));
    EXPECT_LE(stats.max_rel, 1e-2 * (1 + 1e-6));
  }
}

// A chunk is compressed exactly as a smaller field: with one chunk the
// stored stream is the scheme's own stream, and a chunk size past the row
// count clamps to one chunk.
TEST(Archive, SingleChunkStoresTheSchemeStream) {
  auto f = gen::cesm_flux(Dims(60, 80), 2);
  CompressorParams params;
  params.bound = 1e-3;
  auto direct = make_compressor(Scheme::kFpzip)->compress(f.span(), f.dims,
                                                          params);
  std::vector<std::uint8_t> buf;
  {
    ArchiveWriter w(&buf);
    DatasetOptions opts;
    opts.scheme = Scheme::kFpzip;
    opts.params = params;
    opts.rows_per_chunk = 1000;
    w.add_dataset<float>("flux", f.span(), f.dims, opts);
    w.finish();
  }
  ArchiveReader r(buf);
  ASSERT_EQ(r.dataset("flux").chunks.size(), 1u);
  EXPECT_EQ(r.read_chunk_bytes("flux", 0), direct);
}

/// Recorded span paths that name a decode of a chunk stream.
std::vector<std::string> decode_spans(const obs::Snapshot& snap) {
  std::vector<std::string> out;
  for (const auto& [path, stat] : snap.spans)
    for (const char* decode : {"sz.decompress", "sz_interp.decompress",
                               "transformed.decompress", "decompress."})
      if (path.find(decode) != std::string::npos) {
        out.push_back(path);
        break;
      }
  return out;
}

// Summaries describe the reconstruction. The SZ family's encoder already
// holds it, so the writer must not decode the chunks it has just written;
// schemes without an in-loop reconstruction still decode.
TEST(Archive, SzFamilyWriterDecodesNoChunk) {
  auto f = gen::nyx_velocity(Dims(16, 12, 12), 4);  // signed: sign bitmap
  for (Scheme s : {Scheme::kSzAbs, Scheme::kSzPwr, Scheme::kSzT,
                   Scheme::kSziT, Scheme::kZfpT}) {
    SCOPED_TRACE(scheme_name(s));
    obs::ScopedRecording rec;
    obs::reset();
    std::vector<std::uint8_t> buf;
    {
      ArchiveWriter w(&buf);
      DatasetOptions opts;
      opts.scheme = s;
      opts.params.bound = s == Scheme::kSzAbs ? 1.0 : 1e-2;
      opts.rows_per_chunk = 5;
      w.add_dataset<float>("v", f.span(), f.dims, opts);
      w.finish();
    }
    const auto decodes = decode_spans(obs::snapshot());
    if (s == Scheme::kZfpT)
      EXPECT_FALSE(decodes.empty()) << "ZFP_T summaries need a decode";
    else
      EXPECT_TRUE(decodes.empty()) << "writer decoded: " << decodes.front();
    EXPECT_TRUE(ArchiveReader(buf).dataset("v").has_summaries());
  }
}

// --- streaming writes: begin_dataset / append_rows / end_dataset ---

template <typename T>
std::vector<std::uint8_t> whole_archive(std::span<const T> data, Dims dims,
                                        const DatasetOptions& opts) {
  std::vector<std::uint8_t> buf;
  ArchiveWriter w(&buf);
  w.add_dataset<T>("field", data, dims, opts);
  w.finish();
  return buf;
}

template <typename T>
std::vector<std::uint8_t> streamed_archive(
    std::span<const T> data, Dims dims, const DatasetOptions& opts,
    const std::vector<std::size_t>& batches) {
  const std::size_t row = dims.count() / dims[0];
  std::vector<std::uint8_t> buf;
  ArchiveWriter w(&buf);
  w.begin_dataset<T>("field", dims, opts);
  std::size_t at = 0;
  for (std::size_t rows : batches) {
    // append_rows may not return while a task still reads its rows, so
    // scribbling over them afterwards must not change the bytes written.
    auto batch = data.subspan(at * row, rows * row);
    std::vector<T> scratch(batch.begin(), batch.end());
    w.append_rows<T>(scratch);
    std::fill(scratch.begin(), scratch.end(), T(-1));
    at += rows;
  }
  EXPECT_EQ(at, dims[0]);
  EXPECT_EQ(w.rows_remaining(), 0u);
  w.end_dataset();
  w.finish();
  return buf;
}

TEST(ArchiveStreaming, PlaneByPlaneMatchesAddDataset) {
  auto f = gen::hurricane_wind(Dims(20, 24, 24), 11);
  DatasetOptions opts;
  opts.params.bound = 1e-2;
  opts.rows_per_chunk = 5;
  auto streamed = streamed_archive<float>(f.span(), f.dims, opts,
                                          std::vector<std::size_t>(20, 1));
  EXPECT_EQ(streamed, whole_archive<float>(f.span(), f.dims, opts));

  ArchiveReader r(streamed);
  auto out = r.load<float>("field");
  auto stats = compute_error_stats(f.span(), std::span<const float>(out));
  EXPECT_LE(stats.max_rel, 1e-2 * (1 + 1e-6));
}

// Appends of any size — inside one chunk, across seams, several chunks at
// once, the whole field, empty — write add_dataset's bytes, for float and
// double and for the default (one chunk per thread) chunking.
TEST(ArchiveStreaming, AnyAppendSizesMatchAddDataset) {
  auto f = gen::cesm_flux(Dims(33, 40), 12);
  std::vector<double> f64(f.values.begin(), f.values.end());
  const std::vector<std::vector<std::size_t>> patterns = {
      {33}, {1, 2, 7, 13, 10}, {8, 8, 8, 8, 1}, {0, 17, 0, 16},
      {9, 24}, {32, 1}, std::vector<std::size_t>(33, 1)};
  for (std::size_t rows_per_chunk : {0u, 1u, 8u, 11u, 40u}) {
    DatasetOptions opts;
    opts.params.bound = 1e-3;
    opts.rows_per_chunk = rows_per_chunk;
    opts.threads = 3;
    const auto want32 = whole_archive<float>(f.span(), f.dims, opts);
    const auto want64 =
        whole_archive<double>(std::span<const double>(f64), f.dims, opts);
    for (const auto& batches : patterns) {
      SCOPED_TRACE(::testing::PrintToString(batches) + " rows_per_chunk " +
                   std::to_string(rows_per_chunk));
      EXPECT_EQ(streamed_archive<float>(f.span(), f.dims, opts, batches),
                want32);
      EXPECT_EQ(streamed_archive<double>(std::span<const double>(f64),
                                         f.dims, opts, batches),
                want64);
    }
  }
}

// Caller mistakes are ParamErrors that leave the open dataset intact: the
// writer can still complete it and write add_dataset's bytes.
TEST(ArchiveStreaming, Validation) {
  auto f = gen::hacc_velocity(64, 1);
  const Dims dims(16, 4);
  DatasetOptions opts;
  opts.scheme = Scheme::kSzAbs;
  opts.rows_per_chunk = 6;
  std::span<const float> data = f.span();
  std::vector<double> wrong_type(4, 1.0);

  std::vector<std::uint8_t> buf;
  ArchiveWriter w(&buf);
  EXPECT_THROW(w.append_rows<float>(data.first(4)), ParamError);  // not open
  EXPECT_THROW(w.end_dataset(), ParamError);                      // not open
  w.begin_dataset<float>("field", dims, opts);
  EXPECT_THROW(w.begin_dataset<float>("other", dims, opts), ParamError);
  EXPECT_THROW(w.add_dataset<float>("other", data, dims, opts), ParamError);
  EXPECT_THROW(w.add_compressed("other", DataType::kFloat32, Scheme::kSzAbs,
                                dims, 1e-3, 2, {buf.data(), 1}),
               ParamError);
  EXPECT_THROW(w.finish(), ParamError);
  EXPECT_THROW(w.append_rows<float>(data.first(3)), ParamError);  // partial
  EXPECT_THROW(w.append_rows<double>(wrong_type), ParamError);    // dtype
  w.append_rows<float>(data.first(40));  // 10 rows: one chunk + a partial
  EXPECT_EQ(w.rows_remaining(), 6u);
  EXPECT_THROW(w.end_dataset(), ParamError);                     // incomplete
  EXPECT_THROW(w.append_rows<float>(data.first(28)), ParamError);  // too many
  w.append_rows<float>(data.subspan(40));
  EXPECT_EQ(w.rows_remaining(), 0u);
  w.end_dataset();
  EXPECT_THROW(w.end_dataset(), ParamError);  // already closed
  w.finish();
  EXPECT_EQ(buf, whole_archive<float>(data, dims, opts));
}

// The writer's bytes are a contract: this FNV of an in-memory archive of
// fixed, platform-independent fields (golden::field draws integers only)
// was taken before add_dataset became begin_dataset/append_rows/
// end_dataset, so any drift in chunking, chunk order, summaries or the
// footer layout fails here.
TEST(Archive, PinnedBytesOfAFixedArchive) {
  auto f32 = golden::field<float>(24 * 18, 424242);
  auto f64 = golden::field<double>(40 * 6, 77);
  std::vector<std::uint8_t> buf;
  {
    ArchiveWriter w(&buf);
    DatasetOptions o32;
    o32.params.bound = 1e-3;
    o32.rows_per_chunk = 5;  // 24 rows -> 5, 5, 5, 5, 4
    w.add_dataset<float>("f32", f32, Dims(24, 18), o32);
    DatasetOptions o64;
    o64.scheme = Scheme::kSzAbs;
    o64.params.bound = 1e-4;
    o64.rows_per_chunk = 16;  // 40 rows -> 16, 16, 8
    w.add_dataset<double>("f64", f64, Dims(40, 6), o64);
    w.finish();
  }
  EXPECT_EQ(fnv1a64(buf), 0xebc03867def029f9ULL);
}

}  // namespace
}  // namespace store
}  // namespace transpwr
