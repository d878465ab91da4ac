#include "obs/obs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/compressor.h"
#include "data/generators.h"

namespace transpwr {
namespace {

/// Every test that records resets the process-wide registry first; tests in
/// this binary run sequentially so they cannot race each other.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::reset();
  }
  void TearDown() override { obs::set_enabled(false); }
};

TEST_F(ObsTest, DisabledByDefaultAndCounterIsNoOp) {
  EXPECT_FALSE(obs::enabled());
  obs::counter_add("obs_test.noop", 7);
  EXPECT_EQ(obs::counter_value("obs_test.noop"), 0u);
}

TEST_F(ObsTest, ScopedRecordingRestoresPreviousState) {
  {
    obs::ScopedRecording rec;
    EXPECT_TRUE(obs::enabled());
    {
      obs::ScopedRecording off(false);
      EXPECT_FALSE(obs::enabled());
    }
    EXPECT_TRUE(obs::enabled());
  }
  EXPECT_FALSE(obs::enabled());
}

TEST_F(ObsTest, CounterAccumulatesAndSurvivesReset) {
  obs::ScopedRecording rec;
  obs::counter_add("obs_test.c", 3);
  obs::counter_add("obs_test.c");
  EXPECT_EQ(obs::counter_value("obs_test.c"), 4u);
  obs::reset();
  EXPECT_EQ(obs::counter_value("obs_test.c"), 0u);
  // Cached handles must stay valid across reset: keep counting.
  obs::counter_add("obs_test.c", 2);
  EXPECT_EQ(obs::counter_value("obs_test.c"), 2u);
}

TEST_F(ObsTest, CounterIsExactUnderParallelFor) {
  obs::ScopedRecording rec;
  constexpr std::size_t kN = 100000;
  parallel_for(kN, [](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      obs::counter_add("obs_test.parallel");
  });
  EXPECT_EQ(obs::counter_value("obs_test.parallel"), kN);
}

TEST_F(ObsTest, GaugeLastWriterWins) {
  obs::ScopedRecording rec;
  obs::gauge_set("obs_test.g", 1.5);
  obs::gauge_set("obs_test.g", -2.25);
  obs::Snapshot snap = obs::snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "obs_test.g");
  EXPECT_EQ(snap.gauges[0].second, -2.25);
}

TEST_F(ObsTest, SpansNestIntoSlashPaths) {
  obs::ScopedRecording rec;
  {
    obs::Span outer("outer");
    { obs::Span inner("inner"); }
    { obs::Span inner("inner"); }
  }
  { obs::Span outer("outer"); }
  obs::Snapshot snap = obs::snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[0].first, "outer");
  EXPECT_EQ(snap.spans[0].second.count, 2u);
  EXPECT_EQ(snap.spans[1].first, "outer/inner");
  EXPECT_EQ(snap.spans[1].second.count, 2u);
  // Children ran inside the parent, so their time cannot exceed it.
  EXPECT_LE(snap.spans[1].second.seconds, snap.spans[0].second.seconds);
}

TEST_F(ObsTest, IdenticalPathsMergeAcrossThreads) {
  obs::ScopedRecording rec;
  constexpr std::uint64_t kThreads = 4;
  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      obs::Span root("worker");
      obs::Span child("step");
    });
  for (auto& w : workers) w.join();
  obs::Snapshot snap = obs::snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[0].first, "worker");
  EXPECT_EQ(snap.spans[0].second.count, kThreads);
  EXPECT_EQ(snap.spans[1].first, "worker/step");
  EXPECT_EQ(snap.spans[1].second.count, kThreads);
}

TEST_F(ObsTest, SpanNestingUnderParallelForRootsPerThread) {
  // Pool workers have no parent span from the caller's stack, so bodies
  // root their own paths — the caller's open span must not leak into them.
  obs::ScopedRecording rec;
  obs::Span caller("caller");
  std::atomic<bool> saw_foreign_path{false};
  parallel_for(
      4,
      [&](std::size_t, std::size_t) { obs::Span body("body"); },
      {.max_threads = 4, .grain = 1});
  obs::Snapshot snap = obs::snapshot();
  for (const auto& [path, stat] : snap.spans) {
    if (path == "caller/body") saw_foreign_path = true;
  }
  // The calling thread participates in parallel_for, so "caller/body" is
  // legitimate for its own blocks; pool workers must produce plain "body".
  bool saw_rooted = false;
  for (const auto& [path, stat] : snap.spans)
    if (path == "body") saw_rooted = true;
  EXPECT_TRUE(saw_rooted || saw_foreign_path);  // all 4 bodies recorded
  std::uint64_t bodies = 0;
  for (const auto& [path, stat] : snap.spans)
    if (path == "body" || path == "caller/body") bodies += stat.count;
  EXPECT_EQ(bodies, 4u);
}

TEST_F(ObsTest, SecondsReadsElapsedTimeMidSpan) {
  obs::ScopedRecording rec;
  obs::Span s("obs_test.mid");
  EXPECT_GE(s.seconds(), 0.0);
}

TEST_F(ObsTest, CompressedBytesIdenticalWithRecordingOnAndOff) {
  auto f = gen::nyx_dark_matter_density(Dims(16, 16, 16), 3);
  CompressorParams p;
  p.bound = 1e-3;
  for (Scheme scheme : {Scheme::kSzT, Scheme::kFpzip, Scheme::kZfpT}) {
    auto comp = make_compressor(scheme);
    std::vector<std::uint8_t> off_bytes, on_bytes;
    {
      ASSERT_FALSE(obs::enabled());
      off_bytes = comp->compress(f.span(), f.dims, p);
    }
    {
      obs::ScopedRecording rec;
      on_bytes = comp->compress(f.span(), f.dims, p);
    }
    EXPECT_EQ(off_bytes, on_bytes) << "scheme " << scheme_name(scheme);
  }
}

TEST_F(ObsTest, RegisteredCompressorRecordsSpanAndByteCounters) {
  auto f = gen::nyx_dark_matter_density(Dims(16, 16, 16), 3);
  CompressorParams p;
  p.bound = 1e-3;
  obs::ScopedRecording rec;
  auto comp = make_compressor(Scheme::kSzT);
  auto bytes = comp->compress(f.span(), f.dims, p);
  comp->decompress_f32(bytes);
  obs::Snapshot snap = obs::snapshot();
  bool saw_compress = false, saw_decompress = false;
  for (const auto& [path, stat] : snap.spans) {
    if (path == "compress.SZ_T") saw_compress = true;
    if (path == "decompress.SZ_T") saw_decompress = true;
  }
  EXPECT_TRUE(saw_compress);
  EXPECT_TRUE(saw_decompress);
  EXPECT_EQ(obs::counter_value("codec.bytes_in"), f.bytes());
  EXPECT_EQ(obs::counter_value("codec.bytes_out"), bytes.size());
}

// --- JSON schema -------------------------------------------------------------

TEST_F(ObsTest, GoldenJsonSchema) {
  // Locks the transpwr-stats-v1 wire format byte for byte. If this test
  // needs editing, downstream consumers of the JSON break: bump the schema
  // string instead.
  obs::Snapshot snap;
  snap.spans.push_back({"a", {0.5, 2}});
  snap.spans.push_back({"a/b", {0.25, 1}});
  snap.counters.push_back({"c", 7});
  snap.gauges.push_back({"g", 1.5});
  std::string text = obs::to_json(snap, {{"k", "v"}});
  EXPECT_EQ(text,
            "{\n"
            "  \"schema\": \"transpwr-stats-v1\",\n"
            "  \"meta\": {\"k\": \"v\"},\n"
            "  \"spans\": {\n"
            "    \"a\": {\"seconds\": 0.5, \"count\": 2},\n"
            "    \"a/b\": {\"seconds\": 0.25, \"count\": 1}\n"
            "  },\n"
            "  \"counters\": {\n"
            "    \"c\": 7\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g\": 1.5\n"
            "  }\n"
            "}\n");
  EXPECT_TRUE(obs::json_valid(text));
}

TEST_F(ObsTest, EmptySnapshotJsonIsValid) {
  std::string text = obs::to_json(obs::Snapshot{});
  EXPECT_TRUE(obs::json_valid(text));
}

TEST_F(ObsTest, JsonEscapesMetaStrings) {
  std::string text =
      obs::to_json(obs::Snapshot{}, {{"quote\"key", "line\nbreak\\"}});
  EXPECT_TRUE(obs::json_valid(text));
  EXPECT_NE(text.find("quote\\\"key"), std::string::npos);
  EXPECT_NE(text.find("line\\nbreak\\\\"), std::string::npos);
}

TEST_F(ObsTest, WriteStatsJsonRoundTrips) {
  obs::ScopedRecording rec;
  obs::counter_add("obs_test.file", 1);
  obs::gauge_set("obs_test.fg", 3.0);
  { obs::Span s("obs_test.span"); }
  std::string path =
      ::testing::TempDir() + "/transpwr_obs_test_stats.json";
  obs::write_stats_json(path, {{"run", "unit"}});
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(obs::json_valid(text));
  EXPECT_NE(text.find("\"schema\": \"transpwr-stats-v1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"obs_test.file\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"obs_test.span\""), std::string::npos);
  EXPECT_NE(text.find("\"run\": \"unit\""), std::string::npos);
}

TEST_F(ObsTest, JsonValidAcceptRejectTable) {
  // accepted
  for (const char* good : {
           "{}", "[]", "null", "true", "false", "0", "-1", "3.5", "1e9",
           "1.25e-3", "\"s\"", "\"\\u00e9\"", "  {\"a\": [1, 2]}  ",
           "{\"a\": {\"b\": {\"c\": null}}}", "[[],[[]]]",
       })
    EXPECT_TRUE(obs::json_valid(good)) << good;
  // rejected
  for (const char* bad : {
           "", "{", "}", "{\"a\"}", "{\"a\":}", "{a: 1}", "[1,]",
           "{\"a\": 1,}", "01", "1.", ".5", "+1", "1e", "nan", "inf",
           "'s'", "\"unterminated", "\"bad\\x\"", "\"ctrl\n\"", "truex",
           "{} {}", "[1 2]",
       })
    EXPECT_FALSE(obs::json_valid(bad)) << bad;
  // depth cap
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(obs::json_valid(deep));
  std::string shallow(50, '[');
  shallow += std::string(50, ']');
  EXPECT_TRUE(obs::json_valid(shallow));
}

}  // namespace
}  // namespace transpwr
