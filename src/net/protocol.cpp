#include "net/protocol.h"

#include <cstring>

#include "common/checksum.h"
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
  ByteWriter body;
  body.put(static_cast<std::uint16_t>(code));
  put_string(body, message);
  auto bytes = body.take();
  return encode_frame(op, flags | kFlagError, seq, bytes);
}

std::vector<std::uint8_t> alloc_payload_frame(DataType dtype,
                                              const Dims& dims) {
  const std::uint64_t data = std::uint64_t{dims.count()} * size_of(dtype);
  auto frame = alloc_frame(kPayloadHead + data);
  std::uint8_t* p = frame.data() + kBodyOffset;
  p[0] = static_cast<std::uint8_t>(dtype);
  p[1] = static_cast<std::uint8_t>(dims.nd);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::uint64_t d = dims.d[i];
    std::memcpy(p + 2 + 8 * i, &d, 8);
  }
  std::memcpy(p + 26, &data, 8);
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
  ByteReader in(body);
  auto raw = in.get<std::uint16_t>();
  std::string msg = get_string(in, kMaxNameLen);
  if (in.remaining() != 0)
    throw StreamError("tprq1: trailing bytes after error payload");
  if (code) *code = static_cast<ErrCode>(raw);
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

}  // namespace net
}  // namespace transpwr
