#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytestream.h"
#include "common/checksum.h"
#include "common/error.h"
#include "kernels/crc32c.h"

namespace transpwr {
namespace net {
namespace {

std::vector<std::uint8_t> some_body() {
  return {0x01, 0x02, 0x03, 0xff, 0x00, 0x7f};
}

std::vector<std::uint8_t> body_bytes(const Frame& f) {
  return {f.body().begin(), f.body().end()};
}

// Both body checksums a frame may carry: legacy FNV and CRC32C.
constexpr std::uint16_t kSumFlags[] = {0, kFlagCrc32c};

/// Rewrite a frame's flags and re-checksum its header only, leaving the
/// body checksum as the original encoding computed it.
void set_flags_keep_body_sum(std::vector<std::uint8_t>& frame,
                             std::uint16_t flags) {
  std::memcpy(frame.data() + 6, &flags, 2);
  const auto header = static_cast<std::uint32_t>(
      fnv1a64(std::span<const std::uint8_t>(frame.data(), 12)));
  std::memcpy(frame.data() + 12, &header, 4);
}

TEST(Protocol, FrameRoundTrip) {
  auto body = some_body();
  auto encoded = encode_frame(Op::kReadRows, 0, 42, body);
  ASSERT_EQ(encoded.size(), kLenPrefix + kFrameOverhead + body.size());

  Frame f = parse_frame(encoded);
  EXPECT_EQ(f.op, static_cast<std::uint16_t>(Op::kReadRows));
  EXPECT_EQ(f.flags, 0);
  EXPECT_EQ(f.seq, 42u);
  EXPECT_FALSE(f.is_error());
  EXPECT_EQ(body_bytes(f), body);
}

TEST(Protocol, EmptyBodyRoundTrip) {
  auto encoded = encode_frame(Op::kList, 0, 7, {});
  Frame f = parse_frame(encoded);
  EXPECT_EQ(f.op, static_cast<std::uint16_t>(Op::kList));
  EXPECT_TRUE(f.body().empty());
}

TEST(Protocol, ErrorFrameRoundTrip) {
  auto encoded = encode_error(static_cast<std::uint16_t>(Op::kLoad), 9,
                              ErrCode::kNotFound, "no such dataset: vx");
  Frame f = parse_frame(encoded);
  EXPECT_TRUE(f.is_error());
  EXPECT_EQ(f.seq, 9u);
  ErrCode code{};
  std::string message;
  parse_error_body(f.body(), &code, &message);
  EXPECT_EQ(code, ErrCode::kNotFound);
  EXPECT_EQ(message, "no such dataset: vx");
}

// Every possible truncation of a valid frame must be rejected cleanly —
// the exhaustive sweep the length-prefixed design exists to survive.
TEST(Protocol, EveryTruncationRejected) {
  auto body = some_body();
  auto encoded = encode_frame(Op::kStat, 0, 3, body);
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    std::vector<std::uint8_t> truncated(encoded.begin(),
                                        encoded.begin() +
                                            static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(parse_frame(truncated), StreamError) << "cut at " << cut;
  }
}

TEST(Protocol, TrailingGarbageRejected) {
  auto encoded = encode_frame(Op::kPing, 0, 1, some_body());
  encoded.push_back(0xaa);
  EXPECT_THROW(parse_frame(encoded), StreamError);
}

TEST(Protocol, OversizeLengthRejectedBeforeAllocation) {
  // A hostile length prefix above the cap must throw from the 4-byte
  // prefix alone — no body needed, nothing allocated.
  std::uint8_t prefix[kLenPrefix];
  std::uint32_t huge = 0x7fffffff;
  std::memcpy(prefix, &huge, sizeof huge);
  EXPECT_THROW(parse_frame_len(prefix, kDefaultMaxFrame), StreamError);

  // At exactly the cap it parses; one past, it throws.
  std::uint32_t at_cap = static_cast<std::uint32_t>(kMinMaxFrame);
  std::memcpy(prefix, &at_cap, sizeof at_cap);
  EXPECT_EQ(parse_frame_len(prefix, kMinMaxFrame), kMinMaxFrame);
  std::uint32_t past = at_cap + 1;
  std::memcpy(prefix, &past, sizeof past);
  EXPECT_THROW(parse_frame_len(prefix, kMinMaxFrame), StreamError);
}

TEST(Protocol, LengthBelowHeaderRejected) {
  for (std::uint32_t len = 0; len < kFrameOverhead; ++len) {
    std::uint8_t prefix[kLenPrefix];
    std::memcpy(prefix, &len, sizeof len);
    EXPECT_THROW(parse_frame_len(prefix, kDefaultMaxFrame), StreamError)
        << len;
  }
}

TEST(Protocol, HeaderCorruptionDetected) {
  for (std::uint16_t flags : kSumFlags) {
    auto encoded = encode_frame(Op::kVerify, flags, 5, some_body());
    // Flip one bit in every header byte after the length prefix (op,
    // flags, seq, header checksum) — each must fail the header FNV.
    for (std::size_t i = kLenPrefix; i < kLenPrefix + 12; ++i) {
      auto bad = encoded;
      bad[i] ^= 0x10;
      EXPECT_THROW(parse_frame(bad), StreamError)
          << "flags " << flags << " byte " << i;
    }
  }
}

TEST(Protocol, BodyCorruptionDetected) {
  auto body = some_body();
  for (std::uint16_t flags : kSumFlags) {
    auto encoded = encode_frame(Op::kChunkBytes, flags, 8, body);
    for (std::size_t i = encoded.size() - body.size(); i < encoded.size();
         ++i) {
      auto bad = encoded;
      bad[i] ^= 0x01;
      EXPECT_THROW(parse_frame(bad), StreamError)
          << "flags " << flags << " byte " << i;
    }
  }
}

TEST(Protocol, Crc32cFrameRoundTrip) {
  auto body = some_body();
  auto encoded = encode_frame(Op::kReadRows, kFlagCrc32c, 42, body);
  std::uint64_t sum;
  std::memcpy(&sum, encoded.data() + 16, 8);
  EXPECT_EQ(sum, std::uint64_t{kernels::crc32c(body)});  // zero-extended
  Frame f = parse_frame(encoded);
  EXPECT_EQ(f.flags, kFlagCrc32c);
  EXPECT_FALSE(f.is_error());
  EXPECT_EQ(body_bytes(f), body);

  // A legacy frame keeps its FNV body checksum.
  auto legacy = encode_frame(Op::kReadRows, 0, 42, body);
  std::memcpy(&sum, legacy.data() + 16, 8);
  EXPECT_EQ(sum, fnv1a64(body));
  EXPECT_EQ(body_bytes(parse_frame(legacy)), body);
}

TEST(Protocol, BodyChecksumMustMatchTheFlaggedAlgorithm) {
  // A CRC-flagged frame carrying an FNV body checksum is rejected, and an
  // unflagged frame carrying a CRC32C one likewise.
  auto fnv_frame = encode_frame(Op::kReadRows, 0, 3, some_body());
  set_flags_keep_body_sum(fnv_frame, kFlagCrc32c);
  EXPECT_THROW(parse_frame(fnv_frame), StreamError);

  auto crc_frame = encode_frame(Op::kReadRows, kFlagCrc32c, 3, some_body());
  set_flags_keep_body_sum(crc_frame, 0);
  EXPECT_THROW(parse_frame(crc_frame), StreamError);
}

TEST(Protocol, ErrorFramesCarryTheRequestedChecksum) {
  auto encoded = encode_error(static_cast<std::uint16_t>(Op::kLoad), 9,
                              ErrCode::kNotFound, "gone", kFlagCrc32c);
  Frame f = parse_frame(encoded);
  EXPECT_EQ(f.flags, kFlagError | kFlagCrc32c);
  ErrCode code{};
  parse_error_body(f.body(), &code, nullptr);
  EXPECT_EQ(code, ErrCode::kNotFound);
}

TEST(Protocol, FrameLengthCannotWrap) {
  // `len` is a u32 counting the 20-byte header: the largest body is
  // 4 GiB - 21 bytes. Sizing is checked before anything is allocated.
  EXPECT_EQ(kMaxBody, 0xffffffffull - kFrameOverhead);
  EXPECT_EQ(frame_size(kMaxBody), kBodyOffset + kMaxBody);
  try {
    frame_size(kMaxBody + 1);
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxBody)),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("read_rows"), std::string::npos);
  }

  // A payload response: 34-byte head + 4-byte floats. The last element
  // count that fits is (kMaxBody - 34) / 4; one more is refused without
  // allocating the 4 GiB frame.
  const std::size_t fits = (kMaxBody - kPayloadHead) / 4;
  EXPECT_NO_THROW(frame_size(kPayloadHead + 4 * fits));
  EXPECT_THROW(alloc_payload_frame(DataType::kFloat32, Dims(fits + 1)),
               ParamError);
  EXPECT_THROW(alloc_payload_frame(DataType::kFloat64, Dims(1u << 20, 1024)),
               ParamError);
}

TEST(Protocol, PayloadFrameLayout) {
  auto frame = alloc_payload_frame(DataType::kFloat64, Dims(2, 3));
  ASSERT_EQ(frame.size(), kBodyOffset + kPayloadHead + 6 * sizeof(double));
  const double v[6] = {1, -2, 3, 0, 5e300, -6e-300};
  std::memcpy(frame.data() + kBodyOffset + kPayloadHead, v, sizeof v);
  seal_frame(frame, static_cast<std::uint16_t>(Op::kLoad), kFlagCrc32c, 4);
  Frame f = parse_frame(frame);
  ByteReader in(f.body());
  EXPECT_EQ(in.get<std::uint8_t>(), 1);  // kFloat64
  EXPECT_EQ(in.get<std::uint8_t>(), 2);
  EXPECT_EQ(in.get<std::uint64_t>(), 2u);
  EXPECT_EQ(in.get<std::uint64_t>(), 3u);
  EXPECT_EQ(in.get<std::uint64_t>(), 1u);
  auto data = in.get_sized();
  ASSERT_EQ(data.size(), sizeof v);
  EXPECT_EQ(std::memcmp(data.data(), v, sizeof v), 0);
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(Protocol, UnknownOpStillParses) {
  // Forward compatibility: an op this revision does not define still
  // frames correctly; rejecting it is the dispatcher's job (kErrBadOp).
  auto encoded = encode_frame(static_cast<std::uint16_t>(999), 0, 2, {});
  Frame f = parse_frame(encoded);
  EXPECT_EQ(f.op, 999);
  EXPECT_FALSE(known_op(f.op));
  for (auto op : {Op::kPing, Op::kList, Op::kStat, Op::kLoad, Op::kReadRows,
                  Op::kChunkBytes, Op::kVerify, Op::kShutdown}) {
    EXPECT_TRUE(known_op(static_cast<std::uint16_t>(op)));
    EXPECT_NE(std::string(op_name(op)), "");
  }
}

TEST(Protocol, StringsRoundTripAndCapEnforced) {
  ByteWriter w;
  put_string(w, "snapshots.tpar");
  put_string(w, "");
  auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(get_string(r), "snapshots.tpar");
  EXPECT_EQ(get_string(r), "");
  EXPECT_EQ(r.remaining(), 0u);

  ByteWriter over;
  put_string(over, std::string(kMaxNameLen + 1, 'x'));
  auto over_bytes = over.take();
  ByteReader r2(over_bytes);
  EXPECT_THROW(get_string(r2), StreamError);
}

TEST(Protocol, MalformedErrorBodyRejected) {
  std::vector<std::uint8_t> just_code = {0x01};  // u16 truncated
  ErrCode code{};
  std::string message;
  EXPECT_THROW(parse_error_body(just_code, &code, &message), StreamError);
}

// --- typed requests and responses --------------------------------------------

constexpr char kArchive[] = "snapshots.tpar";
constexpr char kDataset[] = "wind";

Request query_request(QueryKind kind, std::uint64_t row_begin,
                      std::uint64_t row_end) {
  Request r(Op::kQuery, kArchive, kDataset);
  r.kind = kind;
  r.row_begin = row_begin;
  r.row_end = row_end;
  return r;
}

/// One fixed request per op, all four query kinds included.
std::vector<std::pair<std::string, Request>> fixed_requests() {
  Request ping(Op::kPing);
  ping.echo = {0x7f, 0x00, 0x42};
  Request rows(Op::kReadRows, kArchive, kDataset);
  rows.row_begin = 6;
  rows.row_end = 10;
  Request chunk(Op::kChunkBytes, kArchive, kDataset);
  chunk.chunk = 3;
  Request chunks = query_request(QueryKind::kChunks, 0, 0);
  chunks.predicate = {QueryCmp::kGe, 1.5};
  Request count = query_request(QueryKind::kCount, 4, 30);
  count.predicate = {QueryCmp::kLt, -2.25};
  Request preview = query_request(QueryKind::kPreview, 4, 30);
  preview.points = 6;
  return {
      {"ping", ping},
      {"list", Request(Op::kList)},
      {"stat", Request(Op::kStat, kArchive)},
      {"load", Request(Op::kLoad, kArchive, kDataset)},
      {"read_rows", rows},
      {"chunk_bytes", chunk},
      {"verify", Request(Op::kVerify, kArchive)},
      {"shutdown", Request(Op::kShutdown)},
      {"query_chunks", chunks},
      {"query_agg", query_request(QueryKind::kAgg, 4, 30)},
      {"query_count", count},
      {"query_preview", preview},
  };
}

// The request bodies are the bytes the hand-written ByteWriter encoders of
// the previous client produced: these sizes and FNVs were taken from them.
TEST(Protocol, RequestBytesArePinned) {
  const std::vector<std::tuple<std::string, std::size_t, std::uint64_t>>
      pinned = {
          {"ping", 3, 0xa4634719701678f8ull},
          {"list", 0, 0xcbf29ce484222325ull},
          {"stat", 18, 0x92aa7932ae9e8c15ull},
          {"load", 26, 0xfa2761d36627380bull},
          {"read_rows", 42, 0xcb5a2392ebabb687ull},
          {"chunk_bytes", 34, 0xf373cedd20b88908ull},
          {"verify", 18, 0x92aa7932ae9e8c15ull},
          {"shutdown", 0, 0xcbf29ce484222325ull},
          {"query_chunks", 60, 0x2bbfd929ce135421ull},
          {"query_agg", 60, 0xdc13498979cf12a4ull},
          {"query_count", 60, 0x67d33151934aaaa9ull},
          {"query_preview", 60, 0xf72d532277b588e8ull},
      };
  const auto requests = fixed_requests();
  ASSERT_EQ(requests.size(), pinned.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& [name, size, fnv] = pinned[i];
    ASSERT_EQ(requests[i].first, name);
    const auto body = encode_request(requests[i].second);
    EXPECT_EQ(body.size(), size) << name;
    EXPECT_EQ(fnv1a64(body), fnv) << name;
  }
}

TEST(Protocol, RequestsRoundTrip) {
  for (const auto& [name, req] : fixed_requests()) {
    SCOPED_TRACE(name);
    const Request got = decode_request(static_cast<std::uint16_t>(req.op),
                                       encode_request(req));
    EXPECT_EQ(got.op, req.op);
    EXPECT_EQ(got.archive, req.archive);
    EXPECT_EQ(got.dataset, req.dataset);
    EXPECT_EQ(got.row_begin, req.row_begin);
    EXPECT_EQ(got.row_end, req.row_end);
    EXPECT_EQ(got.chunk, req.chunk);
    EXPECT_EQ(got.kind, req.kind);
    EXPECT_EQ(got.predicate.cmp, req.predicate.cmp);
    EXPECT_EQ(got.predicate.threshold, req.predicate.threshold);
    EXPECT_EQ(got.points, req.points);
    EXPECT_EQ(got.echo, req.echo);
  }
}

template <typename Exception>
void expect_refused(std::uint16_t op, const std::vector<std::uint8_t>& body,
                    const char* why) {
  EXPECT_THROW(decode_request(op, body), Exception) << why;
}

TEST(Protocol, MalformedRequestsRefused) {
  constexpr auto kQueryOp = static_cast<std::uint16_t>(Op::kQuery);
  try {
    decode_request(999, {});
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), ErrCode::kBadOp);
  }
  expect_refused<ParamError>(static_cast<std::uint16_t>(Op::kPing),
                             std::vector<std::uint8_t>(kMaxPingEcho + 1),
                             "oversized ping echo");
  EXPECT_NO_THROW(decode_request(static_cast<std::uint16_t>(Op::kPing),
                                 std::vector<std::uint8_t>(kMaxPingEcho)));
  expect_refused<ParamError>(static_cast<std::uint16_t>(Op::kList), {0},
                             "trailing byte");
  for (const auto& [name, req] : fixed_requests()) {
    auto body = encode_request(req);
    if (body.empty() || req.op == Op::kPing) continue;
    body.pop_back();
    expect_refused<ParamError>(static_cast<std::uint16_t>(req.op), body,
                               name.c_str());
    body = encode_request(req);
    body.push_back(0);
    expect_refused<ParamError>(static_cast<std::uint16_t>(req.op), body,
                               name.c_str());
  }

  Request q = fixed_requests()[10].second;  // query_count
  ASSERT_EQ(q.kind, QueryKind::kCount);
  auto with_bytes = [&](std::uint8_t kind, std::uint8_t cmp,
                        double threshold) {
    auto body = encode_request(q);
    const std::size_t at = 2 * 4 + 14 + 4;  // after both strings
    body[at] = kind;
    body[at + 1] = cmp;
    std::memcpy(body.data() + at + 2, &threshold, 8);
    return body;
  };
  EXPECT_NO_THROW(decode_request(kQueryOp, with_bytes(3, 3, 1.0)));
  expect_refused<ParamError>(kQueryOp, with_bytes(0, 3, 1.0), "kind 0");
  expect_refused<ParamError>(kQueryOp, with_bytes(5, 3, 1.0), "kind 5");
  expect_refused<ParamError>(kQueryOp, with_bytes(3, 0, 1.0), "cmp 0");
  expect_refused<ParamError>(kQueryOp, with_bytes(1, 9, 1.0), "cmp 9");
  expect_refused<ParamError>(kQueryOp, with_bytes(3, 1, std::nan("")),
                             "NaN threshold");
  expect_refused<ParamError>(
      kQueryOp, with_bytes(1, 1, std::numeric_limits<double>::infinity()),
      "infinite threshold");
  // Kinds without a predicate ignore its bytes, as they always have.
  EXPECT_NO_THROW(decode_request(kQueryOp, with_bytes(2, 9, std::nan(""))));
  EXPECT_NO_THROW(decode_request(kQueryOp, with_bytes(4, 0, 0.0)));
}

query::ChunkMatchResult sample_chunks() {
  query::ChunkMatchResult r;
  r.matches = {{1, 8, 16, true}, {3, 24, 32, false}};
  r.chunks_total = 4;
  r.chunks_pruned = 4;
  return r;
}

query::Aggregate sample_aggregate() {
  query::Aggregate a;
  a.min = -1.5;
  a.max = 2.5;
  a.sum = 10.25;
  a.count = 100;
  a.finite = 97;
  a.nan = a.pos_inf = a.neg_inf = 1;
  a.chunks_pruned = 2;
  a.chunks_decoded = 1;
  return a;
}

query::Preview sample_preview() {
  query::Preview pv;
  pv.rows = {4, 8, 12};
  pv.values = {0.5, -1, 2};
  pv.stride = 4;
  pv.chunks_decoded = 2;
  return pv;
}

RemoteDataset sample_dataset() {
  RemoteDataset ds;
  ds.name = "wind";
  ds.dtype = DataType::kFloat32;
  ds.scheme = static_cast<Scheme>(2);
  ds.dims = Dims(32, 8, 8);
  ds.bound = 1e-3;
  ds.log_base = 2.0;
  ds.chunks = 4;
  ds.compressed_bytes = 5000;
  return ds;
}

using Names = std::vector<std::string>;
using Directory = std::vector<RemoteDataset>;
using Bytes = std::vector<std::uint8_t>;

template <typename Body>
Body round_trip(const Body& body) {
  return decode_response<Body>(encode_response(body));
}

// Response bodies, pinned against the previous server's hand-written
// encoders for the same values.
TEST(Protocol, ResponseBytesArePinned) {
  const std::vector<std::tuple<const char*, Bytes, std::size_t,
                               std::uint64_t>>
      pinned = {
          {"pong", encode_pong(Bytes{0x7f, 0x00, 0x42}), 8,
           0x64f9ce14d6839c8aull},
          {"list", encode_response(Names{"a.tpar", "b.tpar"}), 24,
           0xa3c2ff9d091b4f9cull},
          {"stat", encode_response(Directory{sample_dataset()}), 71,
           0x450997208e97d50aull},
          {"verify", encode_response(VerifyResult{1, 4, 12345}), 24,
           0x46dfa44c523b47a9ull},
          {"chunk_bytes", encode_response(Bytes{1, 2, 3, 4, 5}), 13,
           0x5faa0255a6febe2bull},
          {"chunks", encode_response(sample_chunks()), 76,
           0xb0dc8bbf4a297375ull},
          {"agg", encode_response(sample_aggregate()), 80,
           0xbe3f84638a337c87ull},
          {"count", encode_response(query::CountResult{42, 100, 3, 1}), 32,
           0xaf651b0120b1de09ull},
          {"preview", encode_response(sample_preview()), 68,
           0xe91767ec68157ab0ull},
      };
  for (const auto& [name, body, size, fnv] : pinned) {
    EXPECT_EQ(body.size(), size) << name;
    EXPECT_EQ(fnv1a64(body), fnv) << name;
  }
}

TEST(Protocol, ResponsesRoundTrip) {
  EXPECT_EQ(encode_pong(Bytes{9, 8, 7}),
            (Bytes{'T', 'P', 'R', 'Q', '1', 9, 8, 7}));

  const Names names = {"a.tpar", "", "b.tpar"};
  EXPECT_EQ(round_trip(names), names);

  const auto dir = round_trip(Directory{sample_dataset()});
  ASSERT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir[0].name, "wind");
  EXPECT_EQ(dir[0].dims, Dims(32, 8, 8));
  EXPECT_EQ(dir[0].compressed_bytes, 5000u);

  const auto v = round_trip(VerifyResult{2, 7, 99});
  EXPECT_EQ(v.datasets, 2u);
  EXPECT_EQ(v.chunks, 7u);
  EXPECT_EQ(v.payload_bytes, 99u);

  EXPECT_EQ(round_trip(Bytes{1, 2, 3}), (Bytes{1, 2, 3}));

  const auto chunks = round_trip(sample_chunks());
  ASSERT_EQ(chunks.matches.size(), 2u);
  EXPECT_EQ(chunks.matches[1].chunk, 3u);
  EXPECT_EQ(chunks.matches[1].row_end, 32u);
  EXPECT_FALSE(chunks.matches[0].decided);  // not on the wire
  EXPECT_EQ(chunks.chunks_total, 4u);

  const auto a = round_trip(sample_aggregate());
  EXPECT_EQ(a.sum, 10.25);
  EXPECT_EQ(a.neg_inf, 1u);
  EXPECT_EQ(a.chunks_decoded, 1u);

  const auto c = round_trip(query::CountResult{5, 9, 1, 2});
  EXPECT_EQ(c.matching, 5u);
  EXPECT_EQ(c.chunks_decoded, 2u);

  const auto pv = round_trip(sample_preview());
  EXPECT_EQ(pv.rows, sample_preview().rows);
  EXPECT_EQ(pv.values, sample_preview().values);
  EXPECT_EQ(pv.stride, 4u);
}

/// `body` with the u32 entry count at offset `at` replaced by `n`.
template <typename Body>
Bytes with_count(const Body& body, std::size_t at, std::uint32_t n) {
  Bytes bytes = encode_response(body);
  std::memcpy(bytes.data() + at, &n, 4);
  return bytes;
}

// A hostile count must fail as a StreamError before anything is reserved:
// neither std::bad_alloc for 2^32 - 1 entries nor a gigabyte reservation
// for 5e7 of them.
TEST(Protocol, InflatedResponseCountsRejected) {
  for (std::uint32_t n : {0xffffffffu, 50000000u, 4u}) {
    SCOPED_TRACE(n);
    EXPECT_THROW(decode_response<Names>(with_count(Names{"a", "b"}, 0, n)),
                 StreamError);
    EXPECT_THROW(decode_response<Directory>(
                     with_count(Directory{sample_dataset()}, 0, n)),
                 StreamError);
    EXPECT_THROW(decode_response<query::ChunkMatchResult>(
                     with_count(sample_chunks(), 24, n)),
                 StreamError);
    EXPECT_THROW(
        decode_response<query::Preview>(with_count(sample_preview(), 16, n)),
        StreamError);
  }
}

}  // namespace
}  // namespace net
}  // namespace transpwr
