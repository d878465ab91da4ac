#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "common/error.h"
#include "core/compressor.h"
#include "data/io.h"
#include "net/client.h"
#include "obs/obs.h"
#include "server/server.h"
#include "store/archive.h"
#include "store/archive_json.h"

namespace transpwr {
namespace {

std::string tmp(const std::string& name) {
  return ::testing::TempDir() + "/transpwr_cli_" + name;
}

TEST(CliParse, DimsFormats) {
  EXPECT_EQ(cli::parse_dims("1000000"), Dims(1000000));
  EXPECT_EQ(cli::parse_dims("1800x3600"), Dims(1800, 3600));
  EXPECT_EQ(cli::parse_dims("512x512x512"), Dims(512, 512, 512));
  EXPECT_THROW(cli::parse_dims(""), ParamError);
  EXPECT_THROW(cli::parse_dims("4x"), ParamError);
  EXPECT_THROW(cli::parse_dims("4x4x4x4"), ParamError);
  EXPECT_THROW(cli::parse_dims("abc"), ParamError);
  EXPECT_THROW(cli::parse_dims("0x4"), ParamError);
}

TEST(CliParse, CompressArgs) {
  auto a = cli::parse_args({"compress", "-s", "ZFP_T", "-b", "1e-4", "-d",
                            "64x64x64", "--base", "10", "--threads", "3",
                            "in.bin", "out.tpz"});
  EXPECT_EQ(a.command, "compress");
  EXPECT_EQ(a.scheme, Scheme::kZfpT);
  EXPECT_DOUBLE_EQ(a.bound, 1e-4);
  EXPECT_DOUBLE_EQ(a.log_base, 10.0);
  EXPECT_EQ(a.threads, 3u);
  EXPECT_EQ(a.input, "in.bin");
  EXPECT_EQ(a.output, "out.tpz");
  ASSERT_TRUE(a.dims.has_value());
  EXPECT_EQ(*a.dims, Dims(64, 64, 64));
}

TEST(CliParse, Defaults) {
  auto a = cli::parse_args({"compress", "-d", "100", "i", "o"});
  EXPECT_EQ(a.scheme, Scheme::kSzT);
  EXPECT_DOUBLE_EQ(a.bound, 1e-3);
  EXPECT_EQ(a.dtype, DataType::kFloat32);
}

TEST(CliParse, Rejections) {
  EXPECT_THROW(cli::parse_args({}), ParamError);
  EXPECT_THROW(cli::parse_args({"frobnicate"}), ParamError);
  EXPECT_THROW(cli::parse_args({"compress", "i", "o"}), ParamError);  // no -d
  EXPECT_THROW(cli::parse_args({"compress", "-d", "10", "only_one"}),
               ParamError);
  EXPECT_THROW(cli::parse_args({"compress", "-d", "10", "-b"}), ParamError);
  EXPECT_THROW(cli::parse_args({"compress", "-d", "10", "--wat", "i", "o"}),
               ParamError);
  EXPECT_THROW(cli::parse_args({"compress", "-d", "10", "-t", "f16", "i",
                                "o"}),
               ParamError);
  EXPECT_THROW(cli::parse_args({"compress", "-d", "10", "-b", "-1", "i",
                                "o"}),
               ParamError);
  EXPECT_THROW(cli::parse_args({"gen", "-d", "10", "-o", "x"}), ParamError);
  EXPECT_THROW(cli::parse_args({"info"}), ParamError);
}

TEST(CliEndToEnd, GenCompressInfoDecompressEval) {
  std::string raw = tmp("field.bin");
  std::string packed = tmp("field.tpz");
  std::string restored = tmp("field_out.bin");

  // gen
  auto g = cli::parse_args({"gen", "-w", "nyx", "-d", "24x24x24", "--seed",
                            "7", "-o", raw});
  ASSERT_EQ(cli::run(g), 0);

  // compress
  auto c = cli::parse_args({"compress", "-s", "SZ_T", "-b", "1e-2", "-d",
                            "24x24x24", "--threads", "2", raw, packed});
  ASSERT_EQ(cli::run(c), 0);
  auto raw_bytes = io::read_bytes(raw);
  auto packed_bytes = io::read_bytes(packed);
  EXPECT_LT(packed_bytes.size(), raw_bytes.size());

  // info
  auto i = cli::parse_args({"info", packed});
  EXPECT_EQ(cli::run(i), 0);

  // decompress
  auto d = cli::parse_args({"decompress", packed, restored});
  ASSERT_EQ(cli::run(d), 0);

  // eval: restored must be within the bound of the original
  auto e = cli::parse_args({"eval", "-d", "24x24x24", "-b", "1e-2", raw,
                            restored});
  EXPECT_EQ(cli::run(e), 0);
  auto orig = io::read_floats(raw);
  auto dec = io::read_floats(restored);
  ASSERT_EQ(orig.size(), dec.size());
  for (std::size_t j = 0; j < orig.size(); ++j) {
    if (orig[j] == 0.0f)
      ASSERT_EQ(dec[j], 0.0f);
    else
      ASSERT_LE(std::abs(orig[j] - dec[j]), 1e-2 * std::abs(orig[j]));
  }

  std::remove(raw.c_str());
  std::remove(packed.c_str());
  std::remove(restored.c_str());
}


TEST(CliParse, ArchiveSubcommands) {
  auto c = cli::parse_args({"archive", "create", "-d", "32x8", "-s", "ZFP_T",
                            "-b", "1e-4", "--chunks", "4", "-o", "out.tpar",
                            "a.bin", "b.bin"});
  EXPECT_EQ(c.command, "archive");
  EXPECT_EQ(c.archive_cmd, "create");
  EXPECT_EQ(c.scheme, Scheme::kZfpT);
  EXPECT_EQ(c.chunks, 4u);
  EXPECT_EQ(c.output, "out.tpar");
  ASSERT_EQ(c.inputs.size(), 2u);
  EXPECT_EQ(c.inputs[1], "b.bin");

  auto l = cli::parse_args({"archive", "ls", "x.tpar"});
  EXPECT_EQ(l.archive_cmd, "ls");
  EXPECT_EQ(l.input, "x.tpar");

  auto e = cli::parse_args({"archive", "extract", "--dataset", "vx",
                            "--rows", "10:20", "x.tpar", "out.bin"});
  EXPECT_EQ(e.archive_cmd, "extract");
  EXPECT_EQ(e.dataset, "vx");
  ASSERT_TRUE(e.rows.has_value());
  EXPECT_EQ(e.rows->first, 10u);
  EXPECT_EQ(e.rows->second, 20u);
  EXPECT_EQ(e.input, "x.tpar");
  EXPECT_EQ(e.output, "out.bin");

  auto v = cli::parse_args({"archive", "verify", "x.tpar"});
  EXPECT_EQ(v.archive_cmd, "verify");

  EXPECT_THROW(cli::parse_args({"archive"}), ParamError);
  EXPECT_THROW(cli::parse_args({"archive", "defrag", "x"}), ParamError);
  EXPECT_THROW(cli::parse_args({"archive", "create", "-d", "8", "a.bin"}),
               ParamError);  // no -o
  EXPECT_THROW(cli::parse_args({"archive", "create", "-o", "x", "a.bin"}),
               ParamError);  // no dims
  EXPECT_THROW(cli::parse_args({"archive", "ls"}), ParamError);
  EXPECT_THROW(cli::parse_args({"archive", "extract", "x.tpar"}),
               ParamError);
  EXPECT_THROW(cli::parse_args({"archive", "extract", "--rows", "10-20",
                                "x.tpar", "o"}),
               ParamError);  // malformed range
}

TEST(CliEndToEnd, ArchiveCreateLsExtractVerify) {
  std::string vx = tmp("vx.bin"), vy = tmp("vy.bin");
  std::string packed = tmp("fields.tpar");
  std::string out = tmp("vx_out.bin"), roi = tmp("vx_roi.bin");

  ASSERT_EQ(cli::run(cli::parse_args({"gen", "-w", "nyx", "-d", "16x12x12",
                                      "--seed", "5", "-o", vx})),
            0);
  ASSERT_EQ(cli::run(cli::parse_args({"gen", "-w", "nyx", "-d", "16x12x12",
                                      "--seed", "6", "-o", vy})),
            0);

  ASSERT_EQ(cli::run(cli::parse_args({"archive", "create", "-d", "16x12x12",
                                      "-b", "1e-2", "--chunks", "4", "-o",
                                      packed, vx, vy})),
            0);
  EXPECT_EQ(cli::run(cli::parse_args({"archive", "ls", packed})), 0);
  EXPECT_EQ(cli::run(cli::parse_args({"archive", "verify", packed})), 0);

  // Dataset names are the input file stems.
  const std::string ds = "transpwr_cli_vx";

  // Two datasets: extract must demand --dataset, then honor it.
  EXPECT_THROW(
      cli::run(cli::parse_args({"archive", "extract", packed, out})),
      ParamError);
  ASSERT_EQ(cli::run(cli::parse_args({"archive", "extract", "--dataset",
                                      ds, packed, out})),
            0);
  auto orig = io::read_floats(vx);
  auto dec = io::read_floats(out);
  ASSERT_EQ(orig.size(), dec.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (orig[i] == 0.0f)
      ASSERT_EQ(dec[i], 0.0f);
    else
      ASSERT_LE(std::abs(orig[i] - dec[i]), 1e-2 * std::abs(orig[i]));
  }

  // ROI extract: rows [4, 8) of the full reconstruction, byte-for-byte.
  ASSERT_EQ(cli::run(cli::parse_args({"archive", "extract", "--dataset",
                                      ds, "--rows", "4:8", packed, roi})),
            0);
  auto roi_vals = io::read_floats(roi);
  ASSERT_EQ(roi_vals.size(), 4u * 144);
  for (std::size_t i = 0; i < roi_vals.size(); ++i)
    ASSERT_EQ(roi_vals[i], dec[4 * 144 + i]);

  for (const auto& p : {vx, vy, packed, out, roi}) std::remove(p.c_str());
}

// std::stoull silently accepted "-1" (wrapping to 2^64-1), " 5", and
// "+3"; the CLI now routes every unsigned option through the strict
// full-string parser, so each of those is a ParamError instead of a
// surprise value.
TEST(CliParse, UnsignedOptionsRejectNonCanonicalIntegers) {
  const char* reject[] = {"-1",  " 5",  "+3",   "",     "3x",
                          "0x4", "1 ",  "18446744073709551616"};
  for (const char* bad : reject) {
    EXPECT_THROW(cli::parse_args({"compress", "-d", "10", "--threads", bad,
                                  "i", "o"}),
                 ParamError)
        << "--threads " << bad;
    EXPECT_THROW(
        cli::parse_args({"gen", "-w", "nyx", "-d", "10", "--seed", bad,
                         "-o", "x"}),
        ParamError)
        << "--seed " << bad;
  }
  // The strict parser still accepts every canonical unsigned value.
  EXPECT_EQ(cli::parse_args({"compress", "-d", "10", "--threads", "0", "i",
                             "o"})
                .threads,
            0u);
  EXPECT_EQ(cli::parse_args(
                {"gen", "-w", "nyx", "-d", "10", "--seed", "42", "-o", "x"})
                .seed,
            42u);
  EXPECT_EQ(cli::parse_args({"compress", "-d", "10", "--threads",
                             "18446744073709551615", "i", "o"})
                .threads,
            std::numeric_limits<std::size_t>::max());
}

// `serve --threads` never changed anything (requests decode on the pool
// worker that handles them), so it is refused with the reason.
TEST(CliParse, ServeRefusesThreads) {
  try {
    cli::parse_args({"serve", "--threads", "4", "dir"});
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    EXPECT_NE(std::string(e.what()).find("TRANSPWR_THREADS"),
              std::string::npos);
  }
  EXPECT_EQ(cli::parse_args({"serve", "dir"}).input, "dir");
  EXPECT_EQ(std::string(cli::usage()).find("[--bind-all] [--threads N]"),
            std::string::npos);
}

// std::stod happily parses "nan" and "inf"; a non-finite error bound or
// log base must be rejected at the parser, not propagate into the math.
TEST(CliParse, DoubleOptionsRejectNonFiniteValues) {
  for (const char* bad : {"nan", "inf", "-inf", "NAN", "1e999"}) {
    EXPECT_THROW(
        cli::parse_args({"compress", "-d", "10", "-b", bad, "i", "o"}),
        ParamError)
        << "-b " << bad;
    EXPECT_THROW(
        cli::parse_args({"compress", "-d", "10", "--base", bad, "i", "o"}),
        ParamError)
        << "--base " << bad;
  }
}

TEST(CliEndToEnd, LoadFieldRejectsByteSizeOverflow) {
  // dims whose element count fits size_t but whose byte size does not:
  // count * sizeof(float) must not wrap into a small bogus allocation.
  auto a = cli::parse_args({"compress", "-d", "6148914691236517205",
                            "nonexistent.bin", "out.tpz"});
  EXPECT_THROW(cli::run(a), ParamError);
}

TEST(CliParse, QuerySubcommands) {
  auto s = cli::parse_args({"query", "summary", "x.tpar"});
  EXPECT_EQ(s.command, "query");
  EXPECT_EQ(s.query_cmd, "summary");
  EXPECT_EQ(s.input, "x.tpar");

  auto c = cli::parse_args({"query", "count", "--where", "gt:1.5",
                            "--dataset", "vx", "x.tpar"});
  EXPECT_EQ(c.query_cmd, "count");
  EXPECT_EQ(c.where, "gt:1.5");
  EXPECT_EQ(c.dataset, "vx");

  auto g = cli::parse_args({"query", "agg", "--rows", "4:9", "x.tpar"});
  EXPECT_EQ(g.query_cmd, "agg");
  ASSERT_TRUE(g.rows.has_value());
  EXPECT_EQ(g.rows->first, 4u);
  EXPECT_EQ(g.rows->second, 9u);

  auto p = cli::parse_args({"query", "preview", "--points", "8", "x.tpar"});
  EXPECT_EQ(p.points, 8u);
  EXPECT_EQ(cli::parse_args({"query", "preview", "x.tpar"}).points, 64u);

  EXPECT_THROW(cli::parse_args({"query"}), ParamError);
  EXPECT_THROW(cli::parse_args({"query", "bogus", "x.tpar"}), ParamError);
  EXPECT_THROW(cli::parse_args({"query", "agg"}), ParamError);
  EXPECT_THROW(cli::parse_args({"query", "agg", "a.tpar", "b.tpar"}),
               ParamError);
  // chunks/count take a predicate; refusing to default one keeps "count
  // everything" an explicit agg, not an accident.
  EXPECT_THROW(cli::parse_args({"query", "count", "x.tpar"}), ParamError);
  EXPECT_THROW(cli::parse_args({"query", "chunks", "x.tpar"}), ParamError);
  EXPECT_THROW(cli::parse_args({"query", "preview", "--points", "0",
                                "x.tpar"}),
               ParamError);
  EXPECT_THROW(cli::parse_args({"query", "count", "--where", "eq:1",
                                "x.tpar"}),
               ParamError);
}

TEST(CliEndToEnd, QueryCommandsAnswerFromAnArchive) {
  std::string raw = tmp("q_field.bin");
  std::string packed = tmp("q_fields.tpar");
  ASSERT_EQ(cli::run(cli::parse_args({"gen", "-w", "nyx", "-d", "16x10x10",
                                      "--seed", "3", "-o", raw})),
            0);
  ASSERT_EQ(cli::run(cli::parse_args({"archive", "create", "-d", "16x10x10",
                                      "-b", "1e-2", "--chunks", "4", "-o",
                                      packed, raw})),
            0);

  for (const char* sub : {"summary", "agg"}) {
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(
        cli::run(cli::parse_args({"query", sub, "--json", packed})), 0);
    const std::string doc = ::testing::internal::GetCapturedStdout();
    EXPECT_TRUE(obs::json_valid(doc)) << sub << ": " << doc;
  }

  ::testing::internal::CaptureStdout();
  EXPECT_EQ(cli::run(cli::parse_args({"query", "count", "--where", "le:1e9",
                                      "--json", packed})),
            0);
  std::string count_doc = ::testing::internal::GetCapturedStdout();
  EXPECT_TRUE(obs::json_valid(count_doc));
  EXPECT_NE(count_doc.find("\"chunks_pruned\":4"), std::string::npos)
      << count_doc;
  EXPECT_NE(count_doc.find("\"matching\":1600"), std::string::npos)
      << count_doc;

  ::testing::internal::CaptureStdout();
  EXPECT_EQ(cli::run(cli::parse_args({"query", "chunks", "--where", "gt:0",
                                      "--json", packed})),
            0);
  EXPECT_TRUE(obs::json_valid(::testing::internal::GetCapturedStdout()));

  ::testing::internal::CaptureStdout();
  EXPECT_EQ(cli::run(cli::parse_args({"query", "preview", "--points", "4",
                                      "--rows", "2:14", "--json", packed})),
            0);
  EXPECT_TRUE(obs::json_valid(::testing::internal::GetCapturedStdout()));

  // Human-readable variants must succeed too.
  for (const char* sub : {"summary", "agg"})
    EXPECT_EQ(cli::run(cli::parse_args({"query", sub, packed})), 0);
  EXPECT_EQ(cli::run(cli::parse_args({"query", "count", "--where", "gt:0.5",
                                      packed})),
            0);

  std::remove(raw.c_str());
  std::remove(packed.c_str());
}

TEST(CliParse, JsonFlag) {
  auto l = cli::parse_args({"archive", "ls", "--json", "x.tpar"});
  EXPECT_TRUE(l.json);
  auto v = cli::parse_args({"archive", "verify", "--json", "x.tpar"});
  EXPECT_TRUE(v.json);
  // Default stays off.
  EXPECT_FALSE(cli::parse_args({"archive", "ls", "x.tpar"}).json);
}

// Golden test for the machine-readable archive documents: the CLI's
// --json output is the archive_json serialization plus one newline, and
// that serialization's key order / separators are pinned byte-for-byte.
TEST(CliEndToEnd, ArchiveLsAndVerifyJsonGolden) {
  std::string raw = tmp("json_field.bin");
  std::string packed = tmp("json_fields.tpar");
  ASSERT_EQ(cli::run(cli::parse_args({"gen", "-w", "nyx", "-d", "16x10x10",
                                      "--seed", "21", "-o", raw})),
            0);
  ASSERT_EQ(cli::run(cli::parse_args({"archive", "create", "-d", "16x10x10",
                                      "-b", "1e-2", "--chunks", "4", "-o",
                                      packed, raw})),
            0);

  store::ArchiveReader reader(packed);
  ASSERT_EQ(reader.datasets().size(), 1u);
  const auto& ds = reader.datasets()[0];
  const std::uint64_t compressed = ds.compressed_bytes();
  const std::uint64_t raw_bytes = 16u * 10 * 10 * sizeof(float);

  // Byte-for-byte: fixed key order, no whitespace, doubles via %.17g.
  std::string ratio;
  obs::json_append_double(ratio,
                          static_cast<double>(raw_bytes) /
                              static_cast<double>(compressed));
  std::string expected_ls =
      "{\"archive\":\"" + packed + "\",\"transport\":\"mmap\","
      "\"datasets\":[{\"name\":\"transpwr_cli_json_field\","
      "\"scheme\":\"SZ_T\",\"dtype\":\"f32\",\"dims\":[16,10,10],"
      "\"chunks\":4,\"summaries\":true,\"bound\":0.01,\"log_base\":2,"
      "\"compressed_bytes\":" + std::to_string(compressed) +
      ",\"raw_bytes\":" + std::to_string(raw_bytes) +
      ",\"ratio\":" + ratio + "}]}";
  EXPECT_EQ(store::archive_ls_json(packed, reader), expected_ls);
  EXPECT_TRUE(obs::json_valid(expected_ls));

  std::string expected_verify =
      "{\"archive\":\"" + packed + "\",\"ok\":true,\"datasets\":1,"
      "\"chunks\":4,\"payload_bytes\":" + std::to_string(compressed) + "}";
  EXPECT_EQ(store::archive_verify_json(packed, reader), expected_verify);
  EXPECT_TRUE(obs::json_valid(expected_verify));

  // The CLI prints exactly that document, one line, nothing else.
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(cli::run(cli::parse_args({"archive", "ls", "--json", packed})),
            0);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), expected_ls + "\n");

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(
      cli::run(cli::parse_args({"archive", "verify", "--json", packed})), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            expected_verify + "\n");

  std::remove(raw.c_str());
  std::remove(packed.c_str());
}

TEST(CliParse, StatsFlags) {
  auto a = cli::parse_args({"compress", "-d", "10", "--stats", "i", "o"});
  EXPECT_TRUE(a.stats);
  EXPECT_TRUE(a.stats_json.empty());
  auto b = cli::parse_args({"compress", "-d", "10", "--stats-json",
                            "stats.json", "i", "o"});
  EXPECT_FALSE(b.stats);
  EXPECT_EQ(b.stats_json, "stats.json");
  EXPECT_THROW(cli::parse_args({"compress", "-d", "10", "--stats-json"}),
               ParamError);  // missing path
  // Defaults stay off.
  auto d = cli::parse_args({"info", "x.tpz"});
  EXPECT_FALSE(d.stats);
  EXPECT_TRUE(d.stats_json.empty());
}

TEST(CliEndToEnd, StatsJsonEmitsPerStageSpansForEveryScheme) {
  std::string raw = tmp("stats_field.bin");
  ASSERT_EQ(cli::run(cli::parse_args({"gen", "-w", "nyx", "-d", "12x12x12",
                                      "--seed", "9", "-o", raw})),
            0);

  for (Scheme scheme : all_schemes()) {
    const std::string name = scheme_name(scheme);
    std::string packed = tmp("stats_" + name + ".tpz");
    std::string json_path = tmp("stats_" + name + ".json");
    auto c = cli::parse_args({"compress", "-s", name, "-b", "1e-2", "-d",
                              "12x12x12", "--stats-json", json_path, raw,
                              packed});
    ASSERT_EQ(cli::run(c), 0) << name;

    std::string text;
    {
      auto bytes = io::read_bytes(json_path);
      text.assign(bytes.begin(), bytes.end());
    }
    EXPECT_TRUE(obs::json_valid(text)) << name;
    EXPECT_NE(text.find("\"schema\": \"transpwr-stats-v1\""),
              std::string::npos)
        << name;
    // The registry decorator wraps every registered scheme, so each run
    // must carry a per-scheme compress span (rooted on the pool worker
    // that compressed the chunk) and the codec byte counters.
    EXPECT_NE(text.find("compress." + name + "\""), std::string::npos)
        << name;
    EXPECT_NE(text.find("\"codec.bytes_in\""), std::string::npos) << name;
    EXPECT_NE(text.find("\"cli.wall_s\""), std::string::npos) << name;
    EXPECT_NE(text.find("\"scheme\": \"" + name + "\""), std::string::npos)
        << name;

    std::remove(packed.c_str());
    std::remove(json_path.c_str());
  }
  std::remove(raw.c_str());
}

TEST(CliEndToEnd, StatsRunProducesIdenticalCompressedBytes) {
  std::string raw = tmp("stats_identical.bin");
  ASSERT_EQ(cli::run(cli::parse_args({"gen", "-w", "nyx", "-d", "12x12x12",
                                      "--seed", "11", "-o", raw})),
            0);
  std::string plain = tmp("stats_plain.tpz");
  std::string stats = tmp("stats_on.tpz");
  std::string json_path = tmp("stats_identical.json");
  ASSERT_EQ(cli::run(cli::parse_args({"compress", "-b", "1e-2", "-d",
                                      "12x12x12", raw, plain})),
            0);
  ASSERT_EQ(cli::run(cli::parse_args({"compress", "-b", "1e-2", "-d",
                                      "12x12x12", "--stats-json", json_path,
                                      raw, stats})),
            0);
  EXPECT_EQ(io::read_bytes(plain), io::read_bytes(stats));
  for (const auto& p : {raw, plain, stats, json_path})
    std::remove(p.c_str());
}

// compress writes a one-dataset TPAR archive, so every archive consumer
// takes its output as is: archive ls/verify/extract, query, and serve.
TEST(CliEndToEnd, CompressOutputIsAnArchiveEveryReaderAccepts) {
  const std::string dir = tmp("compress_served");
  std::filesystem::create_directories(dir);
  const std::string raw = tmp("cs_field.bin");
  const std::string packed = dir + "/field.tpar";
  const std::string extracted = tmp("cs_extracted.bin");
  const std::string decompressed = tmp("cs_decompressed.bin");
  ASSERT_EQ(cli::run(cli::parse_args({"gen", "-w", "nyx", "-d", "16x10x10",
                                      "--seed", "4", "-o", raw})),
            0);
  ASSERT_EQ(cli::run(cli::parse_args({"compress", "-b", "1e-2", "-d",
                                      "16x10x10", "--chunks", "4", raw,
                                      packed})),
            0);

  store::ArchiveReader reader(packed);
  ASSERT_EQ(reader.datasets().size(), 1u);
  const auto& ds = reader.datasets()[0];
  EXPECT_EQ(ds.name, "transpwr_cli_cs_field");  // the input's stem
  EXPECT_EQ(ds.chunks.size(), 4u);              // --chunks N => N chunks
  EXPECT_TRUE(ds.has_summaries());

  ::testing::internal::CaptureStdout();
  EXPECT_EQ(cli::run(cli::parse_args({"info", packed})), 0);
  const std::string info = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(info.find("scheme:    SZ_T"), std::string::npos) << info;
  EXPECT_NE(info.find("dims:      16x10x10"), std::string::npos) << info;
  EXPECT_NE(info.find("chunks:    4"), std::string::npos) << info;

  EXPECT_EQ(cli::run(cli::parse_args({"archive", "ls", packed})), 0);
  EXPECT_EQ(cli::run(cli::parse_args({"archive", "verify", packed})), 0);
  ASSERT_EQ(cli::run(cli::parse_args({"archive", "extract", packed,
                                      extracted})),
            0);
  ASSERT_EQ(cli::run(cli::parse_args({"decompress", packed, decompressed})),
            0);
  const auto full = reader.load<float>(ds.name);
  EXPECT_EQ(io::read_floats(extracted), full);
  EXPECT_EQ(io::read_floats(decompressed), full);
  EXPECT_EQ(cli::run(cli::parse_args({"query", "agg", packed})), 0);
  EXPECT_EQ(cli::run(cli::parse_args({"query", "count", "--where", "gt:0",
                                      packed})),
            0);

  server::ServerOptions opts;
  opts.dir = dir;
  opts.enable_http = false;
  server::Server srv(opts);
  srv.start();
  {
    net::Client client("127.0.0.1", srv.port());
    auto rows = client.read_rows("field.tpar", ds.name, 4, 8);
    EXPECT_EQ(rows.dims, Dims(4, 10, 10));
    EXPECT_EQ(rows.as<float>(), reader.read_rows<float>(ds.name, 4, 8));
  }
  srv.stop();

  for (const auto& p : {raw, packed, extracted, decompressed})
    std::remove(p.c_str());
}

// Files from the retired chunked container fail ArchiveReader's magic
// check: info reports them with exit code 1, decompress with a
// StreamError (exit code 2 from main_entry).
TEST(CliEndToEnd, RetiredChunkedFilesAreRejected) {
  const std::string old = tmp("retired.tpz");
  std::vector<std::uint8_t> bytes(64, 0);
  const char magic[] = {'C', 'H', 'K', '1'};
  std::memcpy(bytes.data(), magic, sizeof magic);
  io::write_bytes(old, bytes);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(cli::run(cli::parse_args({"info", old})), 1);
  EXPECT_NE(::testing::internal::GetCapturedStdout().find("bad magic"),
            std::string::npos);
  EXPECT_THROW(
      cli::run(cli::parse_args({"decompress", old, tmp("retired.bin")})),
      StreamError);
  std::remove(old.c_str());
}

// The retired TSR1 series container is refused by info and decompress
// with how to convert it, and series/unseries are no longer commands.
TEST(CliEndToEnd, SeriesContainerIsRefusedWithConversionHint) {
  const std::string old = tmp("retired.tps");
  std::vector<std::uint8_t> bytes(64, 0);
  const char magic[] = {'T', 'S', 'R', '1'};
  std::memcpy(bytes.data(), magic, sizeof magic);
  bytes[4] = 3;  // snapshot count
  io::write_bytes(old, bytes);
  const std::string out = tmp("retired_series.bin");
  const std::vector<std::vector<const char*>> commands = {
      {"transpwr", "info", old.c_str()},
      {"transpwr", "decompress", old.c_str(), out.c_str()}};
  for (const auto& argv : commands) {
    SCOPED_TRACE(argv[1]);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(cli::main_entry(static_cast<int>(argv.size()), argv.data()), 2);
    const std::string err = ::testing::internal::GetCapturedStderr();
    for (const char* hint : {"TSR1", "earlier transpwr build",
                             "transpwr unseries", "transpwr archive create"})
      EXPECT_NE(err.find(hint), std::string::npos) << hint << " in " << err;
  }
  EXPECT_FALSE(std::filesystem::exists(out));
  EXPECT_THROW(cli::parse_args({"series", "-d", "4x4", "-o", "o", "a"}),
               ParamError);
  EXPECT_THROW(cli::parse_args({"unseries", old, "-o", "p"}), ParamError);
  std::remove(old.c_str());
}

TEST(CliEndToEnd, InfoRejectsGarbage) {
  std::string junk = tmp("junk.bin");
  std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  io::write_bytes(junk, bytes);
  auto i = cli::parse_args({"info", junk});
  EXPECT_EQ(cli::run(i), 1);
  std::remove(junk.c_str());
}

TEST(CliEndToEnd, CompressRejectsWrongSize) {
  std::string raw = tmp("short.bin");
  io::write_floats(raw, std::vector<float>(10, 1.0f));
  auto c = cli::parse_args({"compress", "-d", "100", raw, tmp("x.tpz")});
  EXPECT_THROW(cli::run(c), ParamError);
  std::remove(raw.c_str());
}

TEST(CliEndToEnd, MainEntryReportsUsageOnError) {
  const char* argv[] = {"transpwr", "bogus-command"};
  EXPECT_EQ(cli::main_entry(2, argv), 2);
}

}  // namespace
}  // namespace transpwr
