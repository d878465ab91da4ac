#include "server/server.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <thread>
#include <vector>

#include "common/bytestream.h"
#include "common/checksum.h"
#include "common/error.h"
#include "data/generators.h"
#include "kernels/crc32c.h"
#include "net/frame_io.h"
#include "net/client.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "query/query.h"
#include "query/query_json.h"
#include "store/archive.h"

namespace transpwr {
namespace server {
namespace {

/// A served directory holding one real multi-chunk archive, plus a
/// running loopback Server on ephemeral ports.
class ServeLoopback : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/serve_loopback";
    ::mkdir(dir_.c_str(), 0755);
    archive_path_ = dir_ + "/snapshots.tpar";
    write_archive(archive_path_, /*rows=*/32, /*seed=*/7);

    ServerOptions opts;
    opts.dir = dir_;
    server_ = std::make_unique<Server>(opts);
    server_->start();
    ASSERT_GT(server_->port(), 0);
    ASSERT_GT(server_->http_port(), 0);
  }

  void TearDown() override {
    if (server_) server_->stop();
    std::remove(archive_path_.c_str());
  }

  static void write_archive(const std::string& path, std::size_t rows,
                            std::uint64_t seed) {
    auto f = gen::hurricane_wind(Dims(rows, 8, 8), seed);
    store::ArchiveWriter w(path);
    store::DatasetOptions opts;
    opts.scheme = Scheme::kSzT;
    opts.params.bound = 1e-3;
    opts.rows_per_chunk = 8;
    w.add_dataset<float>("wind", f.span(), f.dims, opts);
    w.finish();
  }

  /// One-shot HTTP GET against the facade; returns the full response.
  std::string http_get(const std::string& target) {
    return http_request("GET", target);
  }

  std::string http_request(const std::string& method,
                           const std::string& target) {
    net::Socket s =
        net::Socket::connect("127.0.0.1", server_->http_port());
    s.send_all(method + " " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
    std::string out;
    std::uint8_t buf[4096];
    while (std::size_t n = s.recv_some(buf, /*timeout_ms=*/5000))
      out.append(reinterpret_cast<const char*>(buf), n);
    return out;
  }

  static std::string body_of(const std::string& response) {
    std::size_t blank = response.find("\r\n\r\n");
    EXPECT_NE(blank, std::string::npos);
    return response.substr(blank + 4);
  }

  std::string dir_;
  std::string archive_path_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeLoopback, PingListStatVerify) {
  net::Client c("127.0.0.1", server_->port());
  c.ping();

  auto names = c.list();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "snapshots.tpar");

  auto ds = c.stat("snapshots.tpar");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].name, "wind");
  EXPECT_EQ(ds[0].dtype, DataType::kFloat32);
  EXPECT_EQ(ds[0].dims, Dims(32, 8, 8));
  EXPECT_EQ(ds[0].chunks, 4u);
  EXPECT_GT(ds[0].compressed_bytes, 0u);

  EXPECT_EQ(c.verify("snapshots.tpar"), 4u);
  EXPECT_FALSE(c.chunk_bytes("snapshots.tpar", "wind", 0).empty());
}

// The core guarantee of the wire: what a remote client decodes is
// bit-identical to a local ArchiveReader over the same file — under
// concurrency, through the shared registry handle and chunk cache.
TEST_F(ServeLoopback, ConcurrentReadRowsBitIdentical) {
  store::ArchiveReader local(archive_path_);
  auto full = local.load<float>("wind");

  constexpr int kThreads = 8;
  constexpr int kReqsPerThread = 16;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      try {
        net::Client c("127.0.0.1", server_->port());
        for (int i = 0; i < kReqsPerThread; ++i) {
          std::uint64_t b = static_cast<std::uint64_t>((t * 5 + i) % 28);
          std::uint64_t e = b + 4;
          auto payload = c.read_rows("snapshots.tpar", "wind", b, e);
          if (payload.dims != Dims(4, 8, 8)) { ++failures; return; }
          auto got = payload.as<float>();
          for (std::size_t k = 0; k < got.size(); ++k)
            if (got[k] != full[b * 64 + k]) { ++failures; return; }
        }
      } catch (const Error&) {
        ++failures;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServeLoopback, WholeDatasetLoadMatchesLocal) {
  store::ArchiveReader local(archive_path_);
  auto full = local.load<float>("wind");
  net::Client c("127.0.0.1", server_->port());
  auto payload = c.load("snapshots.tpar", "wind");
  EXPECT_EQ(payload.dims, Dims(32, 8, 8));
  EXPECT_EQ(payload.as<float>(), full);
}

template <typename T>
std::vector<std::uint8_t> as_bytes(const std::vector<T>& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  return {p, p + v.size() * sizeof(T)};
}

/// Removes a file when the test ends, however it ends.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() { std::remove(path.c_str()); }
};

// Every rows response — TPRQ1 read_rows and load, HTTP raw and base64 —
// carries exactly the bytes a local ArchiveReader returns, for both
// element types, in ranges inside one chunk, across a chunk seam, and in
// the short last chunk.
TEST_F(ServeLoopback, RowsResponsesMatchLocalReads) {
  const std::string path = dir_ + "/mixed.tpar";
  RemoveOnExit cleanup{path};
  {
    const Dims dims(20, 8, 8);  // chunks of 8, 8 and 4 rows
    auto f = gen::hurricane_wind(dims, 3);
    std::vector<double> d(dims.count());
    for (std::size_t i = 0; i < d.size(); ++i)
      d[i] = (i % 3 == 0 ? -1.0 : 1.0) * (0.5 + static_cast<double>(i % 97));
    store::ArchiveWriter w(path);
    store::DatasetOptions opts;
    opts.scheme = Scheme::kSzT;
    opts.params.bound = 1e-3;
    opts.rows_per_chunk = 8;
    w.add_dataset<float>("f32", f.span(), dims, opts);
    w.add_dataset<double>("f64", std::span<const double>(d), dims, opts);
    w.finish();
  }
  store::ArchiveReader local(path);
  net::Client c("127.0.0.1", server_->port());
  for (const std::string name : {"f32", "f64"}) {
    const bool f32 = name == "f32";
    auto local_rows = [&](std::size_t b, std::size_t e) {
      return f32 ? as_bytes(local.read_rows<float>(name, b, e))
                 : as_bytes(local.read_rows<double>(name, b, e));
    };
    EXPECT_EQ(c.load("mixed.tpar", name).bytes,
              f32 ? as_bytes(local.load<float>(name))
                  : as_bytes(local.load<double>(name)));
    for (auto [b, e] : {std::pair<std::size_t, std::size_t>{1, 5},
                        {6, 10},
                        {17, 20}}) {
      SCOPED_TRACE(name + " rows " + std::to_string(b) + ":" +
                   std::to_string(e));
      const auto want = local_rows(b, e);
      auto remote = c.read_rows("mixed.tpar", name, b, e);
      EXPECT_EQ(remote.dims, Dims(e - b, 8, 8));
      EXPECT_EQ(remote.bytes, want);

      const std::string target = "/archives/mixed.tpar/datasets/" + name +
                                 "/rows?range=" + std::to_string(b) + ":" +
                                 std::to_string(e);
      const std::string raw = http_get(target + "&encoding=raw");
      EXPECT_EQ(body_of(raw), std::string(want.begin(), want.end()));
      EXPECT_NE(raw.find(std::string("X-Transpwr-Dtype: ") +
                         (f32 ? "f32" : "f64")),
                std::string::npos);
      // HEAD: the GET's head byte for byte, Content-Length included, and
      // no body.
      EXPECT_EQ(http_request("HEAD", target + "&encoding=raw"),
                raw.substr(0, raw.find("\r\n\r\n") + 4));

      const std::string json = body_of(http_get(target));
      EXPECT_TRUE(obs::json_valid(json)) << json;
      EXPECT_NE(json.find("\"data\":\"" + net::base64_encode(want) + "\""),
                std::string::npos);
    }
  }
}

// A client from before the kFlagCrc32c bit sends FNV frames; the server
// answers each request in the checksum algorithm the request used.
TEST_F(ServeLoopback, LegacyFnvClientServed) {
  store::ArchiveReader local(archive_path_);
  const auto want = as_bytes(local.read_rows<float>("wind", 6, 10));
  ByteWriter req;
  net::put_string(req, "snapshots.tpar");
  net::put_string(req, "wind");
  req.put<std::uint64_t>(6);
  req.put<std::uint64_t>(10);
  const auto body = req.take();

  net::Socket s = net::Socket::connect("127.0.0.1", server_->port());
  for (std::uint16_t flags : {std::uint16_t{0}, net::kFlagCrc32c}) {
    SCOPED_TRACE("request flags " + std::to_string(flags));
    s.send_all(net::encode_frame(net::Op::kReadRows, flags, 7, body));
    std::uint8_t prefix[net::kLenPrefix];
    ASSERT_TRUE(s.recv_exact(prefix, /*timeout_ms=*/5000));
    std::uint32_t len;
    std::memcpy(&len, prefix, 4);
    std::vector<std::uint8_t> tail(len);
    ASSERT_TRUE(s.recv_exact(tail, /*timeout_ms=*/5000));
    std::uint16_t resp_flags;
    std::memcpy(&resp_flags, tail.data() + 2, 2);
    EXPECT_EQ(resp_flags, flags);
    std::uint64_t sum;
    std::memcpy(&sum, tail.data() + 12, 8);
    const std::span<const std::uint8_t> resp_body =
        std::span<const std::uint8_t>(tail).subspan(net::kFrameOverhead);
    EXPECT_EQ(sum, flags ? std::uint64_t{kernels::crc32c(resp_body)}
                         : fnv1a64(resp_body));
    const net::Frame f = net::parse_frame_tail(tail);
    ASSERT_FALSE(f.is_error());
    ASSERT_EQ(resp_body.size(), net::kPayloadHead + want.size());
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           resp_body.begin() + net::kPayloadHead));
  }
  // Errors, too, come back in the request's algorithm.
  s.send_all(net::encode_frame(net::Op::kStat, 0, 8, {}));
  net::Frame err;
  ASSERT_TRUE(net::read_frame(s, net::kDefaultMaxFrame, 5000, -1, &err));
  EXPECT_EQ(err.flags, net::kFlagError);
}

TEST_F(ServeLoopback, NotFoundMapsToTypedRemoteError) {
  net::Client c("127.0.0.1", server_->port());
  try {
    c.stat("nope.tpar");
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kNotFound);
  }
  try {
    c.read_rows("snapshots.tpar", "ghost", 0, 4);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kNotFound);
  }
  // A nonsense row range is the caller's fault, not a missing object.
  try {
    c.read_rows("snapshots.tpar", "wind", 9, 3);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kBadRequest);
  }
  // The connection survives refused requests.
  EXPECT_EQ(c.list().size(), 1u);
}

TEST_F(ServeLoopback, MalformedBytesGetErrorFrameThenClose) {
  net::Socket s = net::Socket::connect("127.0.0.1", server_->port());
  // A hostile length prefix: over any sane cap.
  std::uint8_t evil[8] = {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0};
  s.send_all(evil);
  // The server answers one best-effort error frame, then closes.
  std::uint8_t buf[1024];
  std::size_t got = 0;
  try {
    while (std::size_t n = s.recv_some(
               {buf + got, sizeof buf - got}, /*timeout_ms=*/5000))
      got += n;
  } catch (const net::NetError&) {
    // A reset instead of a clean close is acceptable here.
  }
  if (got >= net::kLenPrefix) {
    net::Frame f = net::parse_frame({buf, got});
    EXPECT_TRUE(f.is_error());
    net::ErrCode code{};
    net::parse_error_body(f.body(), &code, nullptr);
    EXPECT_EQ(code, net::ErrCode::kBadRequest);
  }
  // The server shrugged it off: fresh connections still work.
  net::Client c("127.0.0.1", server_->port());
  EXPECT_EQ(c.list().size(), 1u);
}

TEST_F(ServeLoopback, HttpRoutes) {
  obs::ScopedRecording rec;
  std::string health = http_get("/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  std::string archives = http_get("/archives");
  EXPECT_NE(archives.find("200 OK"), std::string::npos);
  EXPECT_TRUE(obs::json_valid(body_of(archives))) << body_of(archives);
  EXPECT_NE(body_of(archives).find("snapshots.tpar"), std::string::npos);

  std::string datasets = http_get("/archives/snapshots.tpar/datasets");
  EXPECT_TRUE(obs::json_valid(body_of(datasets))) << body_of(datasets);
  EXPECT_NE(body_of(datasets).find("\"wind\""), std::string::npos);

  std::string rows = http_get(
      "/archives/snapshots.tpar/datasets/wind/rows?range=0:4");
  EXPECT_NE(rows.find("200 OK"), std::string::npos);
  EXPECT_TRUE(obs::json_valid(body_of(rows))) << body_of(rows);
  EXPECT_NE(body_of(rows).find("\"base64\""), std::string::npos);

  std::string raw = http_get(
      "/archives/snapshots.tpar/datasets/wind/rows?range=0:4&encoding=raw");
  EXPECT_NE(raw.find("200 OK"), std::string::npos);
  EXPECT_NE(raw.find("X-Transpwr-Dtype: f32"), std::string::npos);
  EXPECT_NE(raw.find("X-Transpwr-Dims: 4x8x8"), std::string::npos);
  EXPECT_EQ(body_of(raw).size(), 4u * 8 * 8 * sizeof(float));

  std::string statsz = http_get("/statsz");
  EXPECT_TRUE(obs::json_valid(body_of(statsz))) << body_of(statsz);

  EXPECT_NE(http_get("/archives/ghost.tpar/datasets").find("404"),
            std::string::npos);
  EXPECT_NE(http_get("/nope").find("404"), std::string::npos);
  EXPECT_NE(
      http_get("/archives/snapshots.tpar/datasets/wind/rows?range=9:3")
          .find("400"),
      std::string::npos);

  // Non-GET methods are refused with Allow.
  net::Socket s = net::Socket::connect("127.0.0.1", server_->http_port());
  s.send_all(std::string("POST /archives HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::string resp;
  std::uint8_t buf[1024];
  while (std::size_t n = s.recv_some(buf, /*timeout_ms=*/5000))
    resp.append(reinterpret_cast<const char*>(buf), n);
  EXPECT_NE(resp.find("405"), std::string::npos);
  EXPECT_NE(resp.find("Allow: GET, HEAD"), std::string::npos);
}

TEST_F(ServeLoopback, HeadOmitsBody) {
  net::Socket s = net::Socket::connect("127.0.0.1", server_->http_port());
  s.send_all(std::string("HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::string resp;
  std::uint8_t buf[1024];
  while (std::size_t n = s.recv_some(buf, /*timeout_ms=*/5000))
    resp.append(reinterpret_cast<const char*>(buf), n);
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(body_of(resp), "");  // head only, no payload bytes
}

/// A response's status line and headers, blank line included.
std::string head_of(const std::string& response) {
  return response.substr(0, response.find("\r\n\r\n") + 4);
}

// HEAD gets the head its GET would get — refusals included, Content-Length
// and all — and no body bytes.
TEST_F(ServeLoopback, HeadRefusalsCarryNoBody) {
  const std::string rows = "/archives/snapshots.tpar/datasets/wind/rows";
  for (const auto& [target, status] :
       std::vector<std::pair<std::string, std::string>>{
           {"/archives/nope.tpar/datasets", "404 Not Found"},
           {rows, "400 Bad Request"},
           {rows + "?range=0:4&encoding=hex", "400 Bad Request"},
           {"/nope", "404 Not Found"}}) {
    SCOPED_TRACE(target);
    const std::string get = http_get(target);
    EXPECT_EQ(get.rfind("HTTP/1.1 " + status + "\r\n", 0), 0u) << get;
    ASSERT_FALSE(body_of(get).empty());
    EXPECT_NE(get.find("Content-Length: " +
                       std::to_string(body_of(get).size()) + "\r\n"),
              std::string::npos);
    EXPECT_EQ(http_request("HEAD", target), head_of(get));
  }

  // A draining server refuses what is still in flight with 503, and a
  // HEAD again with the head alone.
  server_->request_stop();
  for (const std::string& target :
       std::vector<std::string>{"/healthz", rows + "?range=0:4"}) {
    SCOPED_TRACE(target);
    const std::string get =
        server_->respond_http("GET " + target + " HTTP/1.1\r\n\r\n");
    EXPECT_EQ(get.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u);
    EXPECT_EQ(body_of(get), "server is draining\n");
    EXPECT_EQ(server_->respond_http("HEAD " + target + " HTTP/1.1\r\n\r\n"),
              head_of(get));
  }
}

// `server.errors` counts each refusal exactly once — every kind, on both
// protocols — and nothing else.
TEST_F(ServeLoopback, ServerErrorsCountEachRefusalOnce) {
  obs::ScopedRecording rec;
  auto delta = [](const std::function<void()>& request) {
    const auto before = obs::counter_value("server.errors");
    request();
    return obs::counter_value("server.errors") - before;
  };
  auto refused_with = [](net::ErrCode want, auto&& call) {
    try {
      call();
      ADD_FAILURE() << "expected RemoteError";
    } catch (const net::RemoteError& e) {
      EXPECT_EQ(e.code(), want);
    }
  };
  /// Send raw bytes to `port` and read until the server closes.
  auto exchange = [](std::uint16_t port, std::string_view bytes) {
    net::Socket s = net::Socket::connect("127.0.0.1", port);
    s.send_all(bytes);
    std::string out;
    std::uint8_t buf[4096];
    try {
      while (std::size_t n = s.recv_some(buf, /*timeout_ms=*/5000))
        out.append(reinterpret_cast<const char*>(buf), n);
    } catch (const net::NetError&) {
      // A reset after a refusal with unread input is fine here.
    }
    return out;
  };

  net::Client c("127.0.0.1", server_->port());
  EXPECT_EQ(delta([&] { c.list(); }), 0u);
  EXPECT_EQ(delta([&] { http_get("/healthz"); }), 0u);

  // TPRQ1: every ErrCode a live server answers with, plus unframeable bytes.
  EXPECT_EQ(delta([&] {
              refused_with(net::ErrCode::kBadRequest, [&] {
                c.read_rows("snapshots.tpar", "wind", 9, 3);
              });
            }),
            1u);
  EXPECT_EQ(delta([&] {
              refused_with(net::ErrCode::kNotFound,
                           [&] { c.stat("nope.tpar"); });
            }),
            1u);
  EXPECT_EQ(delta([&] {
              net::Socket s =
                  net::Socket::connect("127.0.0.1", server_->port());
              s.send_all(net::encode_frame(std::uint16_t{999}, 0, 5, {}));
              net::Frame f;
              ASSERT_TRUE(net::read_frame(s, net::kDefaultMaxFrame, 5000, -1,
                                          &f));
              net::ErrCode code{};
              net::parse_error_body(f.body(), &code, nullptr);
              EXPECT_EQ(code, net::ErrCode::kBadOp);
            }),
            1u);
  EXPECT_EQ(delta([&] {
              exchange(server_->port(),
                       std::string("\xff\xff\xff\x7f\0\0\0\0", 8));
            }),
            1u);

  // HTTP: 400 (unparseable head and bad parameter), 404, 405, 431.
  EXPECT_EQ(delta([&] {
              EXPECT_NE(exchange(server_->http_port(), "GET /\r\n\r\n")
                            .find("400 Bad Request"),
                        std::string::npos);
            }),
            1u);
  EXPECT_EQ(delta([&] {
              EXPECT_NE(http_get("/archives/snapshots.tpar/datasets/wind/"
                                 "query?op=frob")
                            .find("400"),
                        std::string::npos);
            }),
            1u);
  EXPECT_EQ(delta([&] { http_get("/archives/nope.tpar/datasets"); }), 1u);
  EXPECT_EQ(delta([&] { http_request("POST", "/archives"); }), 1u);
  EXPECT_EQ(delta([&] {
              exchange(server_->http_port(),
                       "GET /" + std::string(net::kMaxRequestLine +
                                                 net::kMaxHeaderBytes + 64,
                                             'a'));
            }),
            1u);

  // Draining: kShuttingDown and 503.
  server_->request_stop();
  EXPECT_EQ(delta([&] {
              const auto resp = server_->respond(net::parse_frame(
                  net::encode_frame(net::Op::kList, net::kFlagCrc32c, 6, {})));
              const net::Frame f = net::parse_frame(resp);
              ASSERT_TRUE(f.is_error());
              net::ErrCode code{};
              net::parse_error_body(f.body(), &code, nullptr);
              EXPECT_EQ(code, net::ErrCode::kShuttingDown);
            }),
            1u);
  EXPECT_EQ(delta([&] {
              server_->respond_http("GET /archives HTTP/1.1\r\n\r\n");
            }),
            1u);
}

// kQuery answers must agree exactly with a local Executor over the same
// file — the wire adds transport, never different analytics.
TEST_F(ServeLoopback, QueryOpMatchesLocalExecutor) {
  store::ArchiveReader local(archive_path_);
  query::Executor ex(local, "wind");
  const query::RowRange full = ex.full_range();
  net::Client c("127.0.0.1", server_->port());

  const query::Aggregate la = ex.aggregate(full);
  const auto ra = c.query_aggregate("snapshots.tpar", "wind");
  EXPECT_EQ(ra.min, la.min);
  EXPECT_EQ(ra.max, la.max);
  EXPECT_EQ(ra.sum, la.sum);
  EXPECT_EQ(ra.count, la.count);
  EXPECT_EQ(ra.finite, la.finite);
  EXPECT_EQ(ra.chunks_pruned, la.chunks_pruned);
  EXPECT_EQ(ra.chunks_decoded, la.chunks_decoded);

  const double t = la.min + 0.5 * (la.max - la.min);
  const query::Predicate p{query::Cmp::kGt, t};
  const query::CountResult lc = ex.count_where(p, full);
  const auto rc = c.query_count("snapshots.tpar", "wind",
                                net::QueryCmp::kGt, t);
  EXPECT_EQ(rc.matching, lc.matching);
  EXPECT_EQ(rc.total, lc.total);
  EXPECT_EQ(rc.chunks_pruned, lc.chunks_pruned);
  EXPECT_EQ(rc.chunks_decoded, lc.chunks_decoded);

  const query::ChunkMatchResult lm = ex.find_chunks(p);
  const auto rm = c.query_chunks("snapshots.tpar", "wind",
                                 net::QueryCmp::kGt, t);
  EXPECT_EQ(rm.chunks_total, lm.chunks_total);
  EXPECT_EQ(rm.chunks_pruned, lm.chunks_pruned);
  ASSERT_EQ(rm.matches.size(), lm.matches.size());
  for (std::size_t i = 0; i < lm.matches.size(); ++i) {
    EXPECT_EQ(rm.matches[i].chunk, lm.matches[i].chunk);
    EXPECT_EQ(rm.matches[i].row_begin, lm.matches[i].row_begin);
    EXPECT_EQ(rm.matches[i].row_end, lm.matches[i].row_end);
  }

  const query::Preview lp = ex.preview(6, {4, 30});
  const auto rp = c.query_preview("snapshots.tpar", "wind", 6, 4, 30);
  EXPECT_EQ(rp.stride, lp.stride);
  EXPECT_EQ(rp.rows, lp.rows);
  EXPECT_EQ(rp.values, lp.values);

  // Refusals: unknown dataset is kNotFound, a nonsense row range and an
  // invalid cmp byte are the caller's fault.
  try {
    c.query_aggregate("snapshots.tpar", "ghost");
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kNotFound);
  }
  try {
    c.query_aggregate("snapshots.tpar", "wind", 9, 3);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kBadRequest);
  }
  try {
    c.query_count("snapshots.tpar", "wind", static_cast<net::QueryCmp>(9),
                  0.0);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kBadRequest);
  }
  // The connection survives every refusal.
  EXPECT_EQ(c.list().size(), 1u);
}

// The HTTP query route serves the same query_json documents the CLI
// prints — byte-for-byte, so dashboards can treat both as one schema.
TEST_F(ServeLoopback, HttpQueryRoute) {
  store::ArchiveReader local(archive_path_);
  query::Executor ex(local, "wind");
  const query::RowRange full = ex.full_range();
  const std::string base = "/archives/snapshots.tpar/datasets/wind/query";

  std::string agg = http_get(base + "?op=agg");
  EXPECT_NE(agg.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(agg),
            query::aggregate_json(ex, full, ex.aggregate(full)) + "\n");

  const query::Predicate p = query::parse_predicate("gt:1.5");
  std::string count = http_get(base + "?op=count&where=gt:1.5");
  EXPECT_EQ(body_of(count),
            query::count_json(ex, p, full, ex.count_where(p, full)) + "\n");

  std::string chunks = http_get(base + "?op=chunks&where=gt:1.5");
  EXPECT_EQ(body_of(chunks),
            query::chunks_json(ex, p, ex.find_chunks(p)) + "\n");

  std::string preview = http_get(base + "?op=preview&points=4&rows=2:14");
  EXPECT_EQ(body_of(preview),
            query::preview_json(ex, {2, 14}, ex.preview(4, {2, 14})) + "\n");

  // Refusals: missing/unknown op, predicate problems, bad points.
  EXPECT_NE(http_get(base).find("400"), std::string::npos);
  EXPECT_NE(http_get(base + "?op=frob").find("400"), std::string::npos);
  EXPECT_NE(http_get(base + "?op=count").find("400"), std::string::npos);
  EXPECT_NE(http_get(base + "?op=count&where=eq:1").find("400"),
            std::string::npos);
  EXPECT_NE(http_get(base + "?op=preview&points=0").find("400"),
            std::string::npos);
  EXPECT_NE(http_get(base + "?op=agg&rows=9:3").find("400"),
            std::string::npos);
  EXPECT_NE(
      http_get("/archives/snapshots.tpar/datasets/ghost/query?op=agg")
          .find("404"),
      std::string::npos);
}

// Rewriting an archive in place changes its identity tuple; the
// registry must drop the stale handle and serve the new bytes on the
// next request — no restart.
TEST_F(ServeLoopback, RegistryReopensWhenFileChangesIdentity) {
  net::Client c("127.0.0.1", server_->port());
  auto before = c.stat("snapshots.tpar");
  ASSERT_EQ(before[0].dims, Dims(32, 8, 8));

  // Different row count => different size => different identity.
  write_archive(archive_path_, /*rows=*/16, /*seed=*/9);

  auto after = c.stat("snapshots.tpar");
  EXPECT_EQ(after[0].dims, Dims(16, 8, 8));

  store::ArchiveReader local(archive_path_);
  auto payload = c.read_rows("snapshots.tpar", "wind", 0, 8);
  EXPECT_EQ(payload.as<float>(), local.read_rows<float>("wind", 0, 8));
}

TEST_F(ServeLoopback, ShutdownOpDrainsTheServer) {
  net::Client c("127.0.0.1", server_->port());
  EXPECT_EQ(c.list().size(), 1u);
  c.shutdown_server();  // ack arrives before the drain
  server_->wait();      // returns because the op requested a stop
  server_->stop();
  EXPECT_TRUE(server_->stopping());
  // A stopped server refuses new connections.
  EXPECT_THROW(net::Client("127.0.0.1", server_->port()), Error);
}

}  // namespace
}  // namespace server
}  // namespace transpwr
