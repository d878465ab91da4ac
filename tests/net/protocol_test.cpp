#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
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

}  // namespace
}  // namespace net
}  // namespace transpwr
