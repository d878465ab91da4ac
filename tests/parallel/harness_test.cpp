#include "parallel/harness.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/error.h"
#include "data/generators.h"
#include "obs/obs.h"

namespace transpwr {
namespace {

std::vector<Field<float>> small_shards() {
  std::vector<Field<float>> shards;
  shards.push_back(gen::nyx_dark_matter_density(Dims(12, 12, 12), 1));
  shards.push_back(gen::nyx_velocity(Dims(12, 12, 12), 2));
  return shards;
}

TEST(ParallelHarness, DumpLoadRoundTrip) {
  parallel::RunConfig cfg;
  cfg.scheme = Scheme::kSzT;
  cfg.params.bound = 1e-2;
  cfg.ranks = 4;
  cfg.dir = ::testing::TempDir();
  cfg.verify_rel_bound = 1e-2;
  auto res = parallel::run(cfg, small_shards());
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.ranks, 4u);
  EXPECT_GT(res.compression_ratio, 1.0);
  EXPECT_GE(res.compress_s, 0.0);
  EXPECT_GT(res.dump_s(), 0.0);
  EXPECT_GT(res.load_s(), 0.0);
}

TEST(ParallelHarness, SingleRank) {
  parallel::RunConfig cfg;
  cfg.scheme = Scheme::kFpzip;
  cfg.params.bound = 1e-2;
  cfg.ranks = 1;
  cfg.dir = ::testing::TempDir();
  auto res = parallel::run(cfg, small_shards());
  EXPECT_TRUE(res.verified);
}

TEST(ParallelHarness, MoreRanksThanShardsReuses) {
  parallel::RunConfig cfg;
  cfg.scheme = Scheme::kSzPwr;
  cfg.params.bound = 1e-2;
  cfg.ranks = 8;
  cfg.dir = ::testing::TempDir();
  auto res = parallel::run(cfg, small_shards());
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.ranks, 8u);
}

TEST(ParallelHarness, SharedArchiveLayoutRoundTrips) {
  parallel::RunConfig cfg;
  cfg.scheme = Scheme::kSzT;
  cfg.params.bound = 1e-2;
  cfg.ranks = 4;
  cfg.dir = ::testing::TempDir();
  cfg.layout = parallel::Layout::kSharedArchive;
  cfg.verify_rel_bound = 1e-2;
  auto res = parallel::run(cfg, small_shards());
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.ranks, 4u);
  EXPECT_GT(res.compression_ratio, 1.0);
  EXPECT_GT(res.write_s, 0.0);  // rank 0's archive write
}

// The N-to-1 write phase stores the ranks' streams as they are: the
// scratch archive is never queried, so no summary decode may run inside
// the timed write.
TEST(ParallelHarness, SharedArchiveWriteDecodesNoSummaries) {
  parallel::RunConfig cfg;
  cfg.scheme = Scheme::kSzT;
  cfg.params.bound = 1e-2;
  cfg.ranks = 3;
  cfg.dir = ::testing::TempDir();
  cfg.layout = parallel::Layout::kSharedArchive;
  obs::ScopedRecording rec;
  obs::reset();
  auto res = parallel::run(cfg, small_shards());
  EXPECT_TRUE(res.verified);
  EXPECT_GT(obs::counter_value("codec.bytes_in"), 0u);  // recording is live
  EXPECT_EQ(obs::counter_value("archive.summary_chunks"), 0u);
}

TEST(ParallelHarness, SharedArchiveSingleRank) {
  parallel::RunConfig cfg;
  cfg.scheme = Scheme::kFpzip;
  cfg.params.bound = 1e-2;
  cfg.ranks = 1;
  cfg.dir = ::testing::TempDir();
  cfg.layout = parallel::Layout::kSharedArchive;
  auto res = parallel::run(cfg, small_shards());
  EXPECT_TRUE(res.verified);
}

// Satellite of the rank-file fix: scratch files carry a unique per-run tag
// and are removed on every exit path, so back-to-back runs in one
// directory leave it exactly as they found it — in both layouts.
TEST(ParallelHarness, ScratchFilesAreRemoved) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/harness_scratch";
  fs::create_directories(dir);
  auto count_entries = [&] {
    std::size_t n = 0;
    for (auto it = fs::directory_iterator(dir);
         it != fs::directory_iterator(); ++it)
      ++n;
    return n;
  };
  ASSERT_EQ(count_entries(), 0u);
  for (auto layout : {parallel::Layout::kFilePerRank,
                      parallel::Layout::kSharedArchive}) {
    parallel::RunConfig cfg;
    cfg.scheme = Scheme::kSzT;
    cfg.params.bound = 1e-2;
    cfg.ranks = 3;
    cfg.dir = dir;
    cfg.layout = layout;
    parallel::run(cfg, small_shards());
    EXPECT_EQ(count_entries(), 0u);
  }
  parallel::run_raw_baseline(3, dir, small_shards());
  EXPECT_EQ(count_entries(), 0u);
  fs::remove_all(dir);
}

TEST(ParallelHarness, RawBaseline) {
  auto res = parallel::run_raw_baseline(4, ::testing::TempDir(),
                                        small_shards());
  EXPECT_TRUE(res.verified);
  EXPECT_DOUBLE_EQ(res.compression_ratio, 1.0);
  EXPECT_GT(res.write_s, 0.0);
  EXPECT_GT(res.read_s, 0.0);
}

TEST(ParallelHarness, InvalidConfigThrows) {
  parallel::RunConfig cfg;
  cfg.ranks = 0;
  EXPECT_THROW(parallel::run(cfg, small_shards()), ParamError);
  cfg.ranks = 2;
  EXPECT_THROW(parallel::run(cfg, {}), ParamError);
}

TEST(ParallelHarness, FailingRankSurfacesError) {
  parallel::RunConfig cfg;
  cfg.scheme = Scheme::kSzT;
  cfg.params.bound = 1e-2;
  cfg.ranks = 3;
  cfg.dir = "/nonexistent/path/that/cannot/be/written";
  EXPECT_THROW(parallel::run(cfg, small_shards()), StreamError);
}

}  // namespace
}  // namespace transpwr
