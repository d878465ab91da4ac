#ifndef TRANSPWR_NET_PROTOCOL_H
#define TRANSPWR_NET_PROTOCOL_H

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytestream.h"
#include "common/error.h"
#include "common/types.h"
#include "core/compressor.h"
#include "query/types.h"

namespace transpwr {
namespace net {

/// TPRQ1: the versioned length-prefixed binary protocol `transpwr serve`
/// speaks. One request frame in, one response frame out, over a
/// long-lived TCP connection. Every frame is
///
///   u32 len        bytes that follow this field (kFrameOverhead + body)
///   u16 op         Op below; responses echo the request op
///   u16 flags      bit 0 (kFlagError): error response, body is code+msg
///                  bit 1 (kFlagCrc32c): body_sum is CRC32C, not FNV
///   u32 seq        correlation id, echoed verbatim in the response
///   u32 header_fnv fnv1a64 of the 12 bytes above, truncated to 32 bits
///   u64 body_sum   fnv1a64 of the body bytes, or with kFlagCrc32c their
///                  crc32c zero-extended
///   u8  body[len - kFrameOverhead]
///
/// All integers are little-endian, like every transpwr container. The
/// checksums exist for the same reason the TPAR footer checksum does: a
/// torn or bit-rotted frame is rejected with a clean StreamError instead
/// of being dispatched. The body checksum is the only per-byte cost of
/// the wire, so clients ask for the hardware CRC32C; a peer answers in
/// the algorithm the request named, which keeps FNV-only clients served.
/// `len` is capped (`max_frame` — the TRANSPWR_SERVE_MAX_FRAME knob,
/// DecodeGuard-style) before anything is allocated, so a hostile 2^31
/// length costs the peer a closed connection, not 2 GiB of server memory.
///
/// Versioning: the protocol name *is* the version ("TPRQ1"); a client's
/// first exchange is expected to be kPing, whose response body is the
/// protocol magic, so an incompatible server is detected on the first
/// round trip. See docs/server.md for the op-by-op byte layout.

/// Protocol magic returned in every kPing response body.
inline constexpr char kMagic[5] = {'T', 'P', 'R', 'Q', '1'};

enum class Op : std::uint16_t {
  kPing = 1,        ///< body: arbitrary echo payload (<= 64 bytes)
  kList = 2,        ///< list archives in the served directory
  kStat = 3,        ///< dataset directory of one archive
  kLoad = 4,        ///< decode a whole dataset
  kReadRows = 5,    ///< decode a row range of a dataset
  kChunkBytes = 6,  ///< one chunk's raw compressed stream
  kVerify = 7,      ///< eager checksum scan of one archive
  kShutdown = 8,    ///< ask the server to drain and exit
  kQuery = 9,       ///< compressed-domain query (chunks/agg/count/preview)
};

/// kQuery body: archive string, dataset string, u8 kind, u8 cmp,
/// f64 threshold, u64 row_begin, u64 row_end, u64 points. Row range 0:0
/// means the whole dataset; cmp/threshold are ignored for kinds that take
/// no predicate, points only applies to kPreview.
enum class QueryKind : std::uint8_t {
  kChunks = 1,   ///< which chunks can satisfy the predicate
  kAgg = 2,      ///< min/max/sum/mean/count over the row range
  kCount = 3,    ///< how many values satisfy the predicate
  kPreview = 4,  ///< strided downsample of the row range
};

/// Wire encoding of a query comparison: the query::Cmp byte itself.
using QueryCmp = query::Cmp;

/// Is `op` one this protocol revision defines? Unknown ops still *parse*
/// (forward compatibility); the server answers them with kErrBadOp.
bool known_op(std::uint16_t op);
const char* op_name(Op op);

constexpr std::uint16_t kFlagError = 1u << 0;
constexpr std::uint16_t kFlagCrc32c = 1u << 1;

/// Error codes carried in an error response body (u16 code + string).
enum class ErrCode : std::uint16_t {
  kBadRequest = 1,   ///< malformed body for the op
  kBadOp = 2,        ///< unknown opcode
  kNotFound = 3,     ///< no such archive / dataset / chunk
  kBadState = 4,     ///< archive unreadable or corrupt
  kInternal = 5,     ///< unexpected server-side failure
  kShuttingDown = 6, ///< server is draining; retry elsewhere
};

/// A refusal with its own code: an unknown op or HTTP method (kBadOp), or
/// a draining server (kShuttingDown).
class RequestError : public Error {
 public:
  RequestError(ErrCode code, const std::string& message)
      : Error(message), code_(code) {}
  ErrCode code() const { return code_; }

 private:
  ErrCode code_;
};

/// Bytes after the u32 length field that are header, not body.
constexpr std::size_t kFrameOverhead = 20;
/// Size of the length prefix itself.
constexpr std::size_t kLenPrefix = 4;
/// Offset of the body in an encoded frame.
constexpr std::size_t kBodyOffset = kLenPrefix + kFrameOverhead;
/// Largest body a frame can carry: `len` is a u32 that counts the header.
constexpr std::uint64_t kMaxBody = 0xffffffffu - kFrameOverhead;

/// Hard floor every max-frame configuration is clamped to: a frame must
/// at least hold its own header plus a small body.
constexpr std::size_t kMinMaxFrame = kFrameOverhead + 256;
/// Default inbound frame cap (TRANSPWR_SERVE_MAX_FRAME overrides).
constexpr std::size_t kDefaultMaxFrame = 64u << 20;

/// One parsed frame. It keeps the bytes received after the length prefix,
/// so the body is a view into them rather than a copy.
struct Frame {
  std::uint16_t op = 0;
  std::uint16_t flags = 0;
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> tail;  ///< header + body, as received

  std::span<const std::uint8_t> body() const {
    if (tail.size() <= kFrameOverhead) return {};
    return std::span<const std::uint8_t>(tail).subspan(kFrameOverhead);
  }
  bool is_error() const { return (flags & kFlagError) != 0; }
};

/// Encoded size of a frame carrying `body_size` body bytes. Throws
/// ParamError when the body does not fit the u32 length field, so an
/// oversized response is refused before anything is allocated.
std::size_t frame_size(std::uint64_t body_size);

/// Write the header of a frame whose body is already in place at
/// kBodyOffset, including the body checksum in the algorithm `flags`
/// names.
void seal_frame(std::span<std::uint8_t> frame, std::uint16_t op,
                std::uint16_t flags, std::uint32_t seq);

/// Serialize a frame (length prefix, checksummed header, body).
std::vector<std::uint8_t> encode_frame(std::uint16_t op, std::uint16_t flags,
                                       std::uint32_t seq,
                                       std::span<const std::uint8_t> body);
inline std::vector<std::uint8_t> encode_frame(Op op, std::uint16_t flags,
                                              std::uint32_t seq,
                                              std::span<const std::uint8_t>
                                                  body) {
  return encode_frame(static_cast<std::uint16_t>(op), flags, seq, body);
}

/// Build an error response frame for `seq`; `flags` may add kFlagCrc32c.
std::vector<std::uint8_t> encode_error(std::uint16_t op, std::uint32_t seq,
                                       ErrCode code,
                                       const std::string& message,
                                       std::uint16_t flags = 0);

/// kLoad / kReadRows response body: u8 dtype, u8 nd, 3 x u64 dims, then
/// the u64-sized raw little-endian element bytes. kPayloadHead is the
/// part before the elements.
constexpr std::size_t kPayloadHead = 1 + 1 + 3 * 8 + 8;

/// A kLoad / kReadRows response frame for `dims` elements of `dtype`,
/// payload head written and element bytes zeroed at its end: copy them in
/// (bytewise — they are not element-aligned), then seal the frame. Throws
/// ParamError, before allocating, when the elements do not fit one frame.
std::vector<std::uint8_t> alloc_payload_frame(DataType dtype,
                                              const Dims& dims);

/// Parse the u32 length prefix and validate it against `max_frame`.
/// Returns the number of bytes that must follow (kFrameOverhead..cap).
/// Throws StreamError on a length below the header size or above the cap
/// — the caller must drop the connection, since the stream can no longer
/// be framed.
std::size_t parse_frame_len(std::span<const std::uint8_t> prefix,
                            std::size_t max_frame);

/// Parse one complete frame (length prefix included) from `bytes`.
/// Verifies both checksums and that `bytes` holds exactly one frame.
/// Throws StreamError on truncation, trailing garbage, an out-of-cap
/// length, or a checksum mismatch.
Frame parse_frame(std::span<const std::uint8_t> bytes,
                  std::size_t max_frame = kDefaultMaxFrame);

/// Parse the header+body *tail* of a frame whose length prefix was
/// already consumed (the socket read path: read 4 bytes, size-check,
/// read `len` more, hand them here). The frame takes ownership of `tail`,
/// whose size is the parsed length.
Frame parse_frame_tail(std::vector<std::uint8_t> tail);

/// Decode an error-response body (u16 code + sized string). Throws
/// StreamError when the body is not a well-formed error payload.
void parse_error_body(std::span<const std::uint8_t> body, ErrCode* code,
                      std::string* message);

// --- body field helpers ------------------------------------------------------

/// Strings on the wire are u32 length + raw bytes. Names (archives,
/// datasets) are capped well below any frame limit.
constexpr std::size_t kMaxNameLen = 4096;

void put_string(ByteWriter& out, std::string_view s);
/// Throws StreamError on truncation or a length above `max_len`.
std::string get_string(ByteReader& in, std::size_t max_len = kMaxNameLen);

// --- requests ----------------------------------------------------------------

/// Largest kPing echo payload a server answers.
constexpr std::size_t kMaxPingEcho = 64;

/// One request of either protocol, typed: TPRQ1 frames decode into it and
/// the server's HTTP routes parse into it. Each op reads only its own
/// fields; encode_request writes defaults for fields it carries but ignores.
struct Request {
  explicit Request(Op op = Op::kPing, std::string archive = {},
                   std::string dataset = {})
      : op(op), archive(std::move(archive)), dataset(std::move(dataset)) {}

  Op op = Op::kPing;
  std::string archive;          ///< every op but kPing, kList, kShutdown
  std::string dataset;          ///< kLoad, kReadRows, kChunkBytes, kQuery
  std::uint64_t row_begin = 0;  ///< kReadRows, kQuery (0:0 = whole dataset)
  std::uint64_t row_end = 0;
  std::uint64_t chunk = 0;      ///< kChunkBytes
  QueryKind kind = QueryKind::kChunks;  ///< kQuery
  query::Predicate predicate;   ///< kQuery kChunks / kCount
  std::uint64_t points = 0;     ///< kQuery kPreview
  std::vector<std::uint8_t> echo;  ///< kPing
};

/// The request body of `req.op` (layouts in docs/server.md).
std::vector<std::uint8_t> encode_request(const Request& req);

/// Parse and validate the body of a request frame for `op`. Throws
/// RequestError(kBadOp) for an unknown op, and ParamError for truncation,
/// trailing bytes, an echo over kMaxPingEcho, a query kind or comparison
/// byte out of range, or a non-finite threshold.
Request decode_request(std::uint16_t op, std::span<const std::uint8_t> body);

// --- responses ---------------------------------------------------------------

/// kPing: the protocol magic followed by the echo.
std::vector<std::uint8_t> encode_pong(std::span<const std::uint8_t> echo);

/// One dataset's directory entry as reported by kStat.
struct RemoteDataset {
  std::string name;
  DataType dtype = DataType::kFloat32;
  Scheme scheme = Scheme::kSzT;
  Dims dims;
  double bound = 0;
  double log_base = 0;
  std::uint64_t chunks = 0;
  std::uint64_t compressed_bytes = 0;
};

/// kVerify: what the eager checksum scan covered.
struct VerifyResult {
  std::uint64_t datasets = 0;
  std::uint64_t chunks = 0;
  std::uint64_t payload_bytes = 0;
};

/// Every other response body, its layout coded once for both ends. `Body`
/// is std::vector<std::string> (kList), std::vector<RemoteDataset>
/// (kStat), std::vector<std::uint8_t> (kChunkBytes), VerifyResult
/// (kVerify), or a query:: result (kQuery; ChunkMatch::decided is not on
/// the wire). decode_response throws StreamError on truncation, trailing
/// bytes, or an entry count the body cannot hold, before reserving any.
template <typename Body>
std::vector<std::uint8_t> encode_response(const Body& body);
template <typename Body>
Body decode_response(std::span<const std::uint8_t> bytes);

/// Decoded payload of a kLoad / kReadRows response: raw little-endian
/// element bytes plus the shape they describe. `as<T>()` reinterprets —
/// T must match `dtype` (checked).
struct RemotePayload {
  DataType dtype = DataType::kFloat32;
  Dims dims;
  std::vector<std::uint8_t> bytes;

  template <typename T>
  std::vector<T> as() const {
    if (data_type_of<T>() != dtype)
      throw ParamError("remote payload dtype mismatch");
    if (bytes.size() % sizeof(T) != 0)
      throw StreamError("remote payload size is not a whole element count");
    std::vector<T> out(bytes.size() / sizeof(T));
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }
};

/// The body alloc_payload_frame lays out, once its elements are in.
RemotePayload decode_payload(std::span<const std::uint8_t> body);

}  // namespace net
}  // namespace transpwr

#endif  // TRANSPWR_NET_PROTOCOL_H
