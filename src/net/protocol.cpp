#include "net/protocol.h"

#include <cmath>
#include <cstring>

#include "common/checksum.h"
#include "common/decode_guard.h"
#include "kernels/crc32c.h"

namespace transpwr {
namespace net {
namespace {

/// fnv1a64 of the 12 header bytes (len|op|flags|seq), truncated to u32.
/// Computed over the serialized little-endian bytes so both ends agree
/// regardless of host struct layout.
std::uint32_t header_fnv(std::uint32_t len, std::uint16_t op,
                         std::uint16_t flags, std::uint32_t seq) {
  std::uint8_t raw[12];
  std::memcpy(raw + 0, &len, 4);
  std::memcpy(raw + 4, &op, 2);
  std::memcpy(raw + 6, &flags, 2);
  std::memcpy(raw + 8, &seq, 4);
  return static_cast<std::uint32_t>(fnv1a64(raw));
}

/// Checksum of a frame body in the algorithm `flags` names.
std::uint64_t body_checksum(std::uint16_t flags,
                            std::span<const std::uint8_t> body) {
  if (flags & kFlagCrc32c) return kernels::crc32c(body);
  return fnv1a64(body);
}

/// A zeroed frame with room for `body_size` body bytes at kBodyOffset.
std::vector<std::uint8_t> alloc_frame(std::uint64_t body_size) {
  return std::vector<std::uint8_t>(frame_size(body_size));
}

// Every body layout is coded once, as a layout(io, value) that visits the
// fields in wire order. `io` is a Put when encoding and a Get when
// decoding, so the two ends of the wire cannot disagree on a layout.

/// Appends the visited fields to a body.
struct Put {
  ByteWriter out;

  void operator()(const auto&... fields) { (put(fields), ...); }
  /// The u32 entry count of `items` and any parallel vectors after it.
  std::size_t count(std::size_t, const auto& items, const auto&...) {
    out.put(static_cast<std::uint32_t>(items.size()));
    return items.size();
  }

 private:
  void put(const std::string& s) { put_string(out, s); }
  void put(const std::vector<std::uint8_t>& bytes) { out.put_sized(bytes); }
  void put(const Dims& dims) {
    out.put(static_cast<std::uint8_t>(dims.nd));
    for (std::size_t d : dims.d) out.put(static_cast<std::uint64_t>(d));
  }
  void put(const auto& v) { out.put(v); }
};

/// Reads the visited fields from a body; throws StreamError on truncation.
struct Get {
  ByteReader in;

  void operator()(auto&... fields) { (get(fields), ...); }
  /// Sizes `items` and any parallel vectors after it to a u32 entry count
  /// — refused first unless the rest of the body can hold that many
  /// entries of `min_entry` bytes, so a hostile count costs nothing.
  std::size_t count(std::size_t min_entry, auto&... items) {
    const auto n = in.get<std::uint32_t>();
    if (std::uint64_t{n} * min_entry > in.remaining())
      throw StreamError("tprq1: " + std::to_string(n) +
                        " entries exceed the response body");
    (items.resize(n), ...);
    return n;
  }

 private:
  void get(std::string& s) { s = get_string(in); }
  void get(std::vector<std::uint8_t>& bytes) {
    auto sized = in.get_sized();
    bytes.assign(sized.begin(), sized.end());
  }
  void get(Dims& dims) {
    dims.nd = in.get<std::uint8_t>();
    for (std::size_t& d : dims.d) d = in.get<std::uint64_t>();
    dims.validate();
  }
  template <typename T>
  void get(T& v) { v = in.get<T>(); }
};

/// Request bodies, one line per op. kPing's body is its raw echo, outside
/// this layout; kList and kShutdown have none.
void layout(auto& io, Request& r) {
  switch (r.op) {
    case Op::kStat:
    case Op::kVerify: io(r.archive); break;
    case Op::kLoad: io(r.archive, r.dataset); break;
    case Op::kReadRows: io(r.archive, r.dataset, r.row_begin, r.row_end); break;
    case Op::kChunkBytes: io(r.archive, r.dataset, r.chunk); break;
    case Op::kQuery:
      io(r.archive, r.dataset, r.kind, r.predicate.cmp, r.predicate.threshold,
         r.row_begin, r.row_end, r.points);
      break;
    default: break;
  }
}

void layout(auto& io, std::vector<std::string>& names) {
  io.count(4, names);
  for (auto& name : names) io(name);
}

void layout(auto& io, std::vector<RemoteDataset>& dir) {
  io.count(4 + 1 + 1 + 25 + 4 * 8, dir);
  for (auto& ds : dir)
    io(ds.name, ds.dtype, ds.scheme, ds.dims, ds.bound, ds.log_base,
       ds.chunks, ds.compressed_bytes);
}

void layout(auto& io, std::vector<std::uint8_t>& chunk) {
  io(chunk);
}

void layout(auto& io, VerifyResult& v) {
  io(v.datasets, v.chunks, v.payload_bytes);
}

void layout(auto& io, query::ChunkMatchResult& r) {
  io(r.chunks_total, r.chunks_pruned, r.chunks_decoded);
  io.count(3 * 8, r.matches);
  for (auto& m : r.matches) io(m.chunk, m.row_begin, m.row_end);
}

void layout(auto& io, query::Aggregate& a) {
  io(a.min, a.max, a.sum, a.count, a.finite, a.nan, a.pos_inf, a.neg_inf,
     a.chunks_pruned, a.chunks_decoded);
}

void layout(auto& io, query::CountResult& r) {
  io(r.matching, r.total, r.chunks_pruned, r.chunks_decoded);
}

void layout(auto& io, query::Preview& pv) {
  io(pv.stride, pv.chunks_decoded);
  const std::size_t n = io.count(8 + 8, pv.rows, pv.values);
  for (std::size_t i = 0; i < n; ++i) io(pv.rows[i], pv.values[i]);
}

/// The layout alloc_payload_frame writes in place.
void layout(auto& io, RemotePayload& p) {
  io(p.dtype, p.dims, p.bytes);
}

}  // namespace

bool known_op(std::uint16_t op) {
  return op >= static_cast<std::uint16_t>(Op::kPing) &&
         op <= static_cast<std::uint16_t>(Op::kQuery);
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kList: return "list";
    case Op::kStat: return "stat";
    case Op::kLoad: return "load";
    case Op::kReadRows: return "read_rows";
    case Op::kChunkBytes: return "chunk_bytes";
    case Op::kVerify: return "verify";
    case Op::kShutdown: return "shutdown";
    case Op::kQuery: return "query";
  }
  return "unknown";
}

std::size_t frame_size(std::uint64_t body_size) {
  if (body_size > kMaxBody)
    throw ParamError("tprq1: a " + std::to_string(body_size) +
                     "-byte response exceeds the " +
                     std::to_string(kMaxBody) +
                     "-byte frame body limit; fetch it in row ranges with "
                     "read_rows");
  return kBodyOffset + static_cast<std::size_t>(body_size);
}

void seal_frame(std::span<std::uint8_t> frame, std::uint16_t op,
                std::uint16_t flags, std::uint32_t seq) {
  const auto len = static_cast<std::uint32_t>(frame.size() - kLenPrefix);
  const std::uint32_t header = header_fnv(len, op, flags, seq);
  const std::uint64_t sum = body_checksum(flags, frame.subspan(kBodyOffset));
  std::uint8_t* p = frame.data();
  std::memcpy(p + 0, &len, 4);
  std::memcpy(p + 4, &op, 2);
  std::memcpy(p + 6, &flags, 2);
  std::memcpy(p + 8, &seq, 4);
  std::memcpy(p + 12, &header, 4);
  std::memcpy(p + 16, &sum, 8);
}

std::vector<std::uint8_t> encode_frame(std::uint16_t op, std::uint16_t flags,
                                       std::uint32_t seq,
                                       std::span<const std::uint8_t> body) {
  auto frame = alloc_frame(body.size());
  if (!body.empty())
    std::memcpy(frame.data() + kBodyOffset, body.data(), body.size());
  seal_frame(frame, op, flags, seq);
  return frame;
}

std::vector<std::uint8_t> encode_error(std::uint16_t op, std::uint32_t seq,
                                       ErrCode code,
                                       const std::string& message,
                                       std::uint16_t flags) {
  Put body;
  body(code, message);
  return encode_frame(op, flags | kFlagError, seq, body.out.take());
}

std::vector<std::uint8_t> alloc_payload_frame(DataType dtype,
                                              const Dims& dims) {
  const std::uint64_t data = std::uint64_t{dims.count()} * size_of(dtype);
  auto frame = alloc_frame(kPayloadHead + data);
  Put head;
  head(dtype, dims, data);  // the RemotePayload layout, up to its elements
  std::memcpy(frame.data() + kBodyOffset, head.out.take().data(),
              kPayloadHead);
  return frame;
}

std::size_t parse_frame_len(std::span<const std::uint8_t> prefix,
                            std::size_t max_frame) {
  if (prefix.size() < kLenPrefix)
    throw StreamError("tprq1: truncated length prefix");
  std::uint32_t len;
  std::memcpy(&len, prefix.data(), 4);
  if (len < kFrameOverhead)
    throw StreamError("tprq1: frame length " + std::to_string(len) +
                      " below the " + std::to_string(kFrameOverhead) +
                      "-byte header");
  if (len > max_frame)
    throw StreamError("tprq1: frame length " + std::to_string(len) +
                      " exceeds the " + std::to_string(max_frame) +
                      "-byte cap");
  return len;
}

Frame parse_frame_tail(std::vector<std::uint8_t> tail) {
  if (tail.size() < kFrameOverhead)
    throw StreamError("tprq1: frame length below the header size");
  if (tail.size() > 0xffffffffu)
    throw StreamError("tprq1: frame length exceeds the u32 length field");
  ByteReader in(tail);
  Frame f;
  f.op = in.get<std::uint16_t>();
  f.flags = in.get<std::uint16_t>();
  f.seq = in.get<std::uint32_t>();
  auto declared_header = in.get<std::uint32_t>();
  auto declared_body = in.get<std::uint64_t>();
  if (declared_header != header_fnv(static_cast<std::uint32_t>(tail.size()),
                                    f.op, f.flags, f.seq))
    throw StreamError("tprq1: header checksum mismatch");
  f.tail = std::move(tail);
  if (body_checksum(f.flags, f.body()) != declared_body)
    throw StreamError("tprq1: body checksum mismatch");
  return f;
}

Frame parse_frame(std::span<const std::uint8_t> bytes,
                  std::size_t max_frame) {
  std::size_t len = parse_frame_len(bytes, max_frame);
  if (bytes.size() != kLenPrefix + len)
    throw StreamError("tprq1: frame is " + std::to_string(bytes.size()) +
                      " bytes, length prefix declares " +
                      std::to_string(kLenPrefix + len));
  return parse_frame_tail(
      std::vector<std::uint8_t>(bytes.begin() + kLenPrefix, bytes.end()));
}

void parse_error_body(std::span<const std::uint8_t> body, ErrCode* code,
                      std::string* message) {
  Get in{ByteReader(body)};
  ErrCode raw{};
  std::string msg;
  in(raw, msg);
  if (in.in.remaining() != 0)
    throw StreamError("tprq1: trailing bytes after error payload");
  if (code) *code = raw;
  if (message) *message = std::move(msg);
}

void put_string(ByteWriter& out, std::string_view s) {
  out.put(static_cast<std::uint32_t>(s.size()));
  out.put_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::string get_string(ByteReader& in, std::size_t max_len) {
  auto n = in.get<std::uint32_t>();
  if (n > max_len)
    throw StreamError("tprq1: string length " + std::to_string(n) +
                      " exceeds the " + std::to_string(max_len) +
                      "-byte cap");
  auto bytes = in.get_bytes(n);
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

template <typename Body>
std::vector<std::uint8_t> encode_response(const Body& body) {
  Put io;
  layout(io, const_cast<Body&>(body));  // a Put only reads
  return io.out.take();
}

template <typename Body>
Body decode_response(std::span<const std::uint8_t> bytes) {
  Get io{ByteReader(bytes)};
  Body body;
  layout(io, body);
  if (io.in.remaining() != 0)
    throw StreamError("tprq1: trailing bytes in response body");
  return body;
}

#define TRANSPWR_RESPONSE_BODY(Body)                                 \
  template std::vector<std::uint8_t> encode_response(const Body&); \
  template Body decode_response(std::span<const std::uint8_t>);
TRANSPWR_RESPONSE_BODY(std::vector<std::string>)
TRANSPWR_RESPONSE_BODY(std::vector<RemoteDataset>)
TRANSPWR_RESPONSE_BODY(std::vector<std::uint8_t>)
TRANSPWR_RESPONSE_BODY(VerifyResult)
TRANSPWR_RESPONSE_BODY(query::ChunkMatchResult)
TRANSPWR_RESPONSE_BODY(query::Aggregate)
TRANSPWR_RESPONSE_BODY(query::CountResult)
TRANSPWR_RESPONSE_BODY(query::Preview)
#undef TRANSPWR_RESPONSE_BODY

std::vector<std::uint8_t> encode_request(const Request& req) {
  return req.op == Op::kPing ? req.echo : encode_response(req);
}

Request decode_request(std::uint16_t op, std::span<const std::uint8_t> body) {
  if (!known_op(op))
    throw RequestError(ErrCode::kBadOp, "unknown op " + std::to_string(op));
  Request req;
  req.op = static_cast<Op>(op);
  if (req.op == Op::kPing) {
    if (body.size() > kMaxPingEcho)
      throw ParamError("tprq1: ping echo payload too large");
    req.echo.assign(body.begin(), body.end());
    return req;
  }
  try {
    Get io{ByteReader(body)};
    layout(io, req);
    if (io.in.remaining() != 0) throw StreamError("trailing bytes");
  } catch (const StreamError& e) {
    // A body that does not fit its op is the caller's fault, not the
    // archive's.
    throw ParamError(std::string("tprq1: malformed ") + op_name(req.op) +
                     " request: " + e.what());
  }
  if (req.op != Op::kQuery) return req;
  if (req.kind < QueryKind::kChunks || req.kind > QueryKind::kPreview)
    throw ParamError("tprq1: bad query kind byte");
  // Only the kinds that take a predicate check it.
  if (req.kind == QueryKind::kChunks || req.kind == QueryKind::kCount) {
    if (req.predicate.cmp < query::Cmp::kGt ||
        req.predicate.cmp > query::Cmp::kLe)
      throw ParamError("tprq1: bad query comparison byte");
    if (!std::isfinite(req.predicate.threshold))
      throw ParamError("tprq1: query threshold must be finite");
  }
  return req;
}

std::vector<std::uint8_t> encode_pong(std::span<const std::uint8_t> echo) {
  std::vector<std::uint8_t> body(kMagic, kMagic + sizeof kMagic);
  body.insert(body.end(), echo.begin(), echo.end());
  return body;
}

RemotePayload decode_payload(std::span<const std::uint8_t> body) {
  auto p = decode_response<RemotePayload>(body);
  if (p.bytes.size() !=
      checked_count(p.dims, "tprq1 payload") * size_of(p.dtype))
    throw StreamError("tprq1: payload size does not match its dims");
  return p;
}

}  // namespace net
}  // namespace transpwr
