#include "net/client.h"

#include <algorithm>

#include "common/decode_guard.h"
#include "net/frame_io.h"

namespace transpwr {
namespace net {
namespace {

/// Client-side response-size cap: responses carry decoded payloads, so
/// they may legitimately exceed the *request* cap by a lot; bound them
/// by the decode guard like any other untrusted stream.
std::size_t response_cap() { return max_decode_bytes(); }

Request query_request(const std::string& archive, const std::string& dataset,
                      QueryKind kind, std::uint64_t row_begin,
                      std::uint64_t row_end, query::Predicate predicate = {},
                      std::uint64_t points = 0) {
  Request req(Op::kQuery, archive, dataset);
  req.kind = kind;
  req.row_begin = row_begin;
  req.row_end = row_end;
  req.predicate = predicate;
  req.points = points;
  return req;
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port)
    : sock_(Socket::connect(host, port)) {
  ping();
}

Frame Client::call(const Request& req) {
  const std::uint32_t seq = next_seq_++;
  sock_.send_all(
      encode_frame(req.op, kFlagCrc32c, seq, encode_request(req)));
  Frame resp;
  if (!read_frame(sock_, response_cap(), /*timeout_ms=*/-1, /*wake_fd=*/-1,
                  &resp))
    throw NetError("server closed the connection");
  if (resp.seq != seq)
    throw StreamError("tprq1: response seq " + std::to_string(resp.seq) +
                      " does not match request " + std::to_string(seq));
  if (resp.op != static_cast<std::uint16_t>(req.op))
    throw StreamError("tprq1: response op does not match request");
  if (resp.is_error()) {
    ErrCode code{};
    std::string message;
    parse_error_body(resp.body(), &code, &message);
    throw RemoteError(code, message);
  }
  return resp;
}

void Client::ping() {
  Request req;
  req.echo = {0x7f, 0x00, 0x42};
  const Frame resp = call(req);
  if (!std::ranges::equal(resp.body(), encode_pong(req.echo)))
    throw StreamError("tprq1: bad ping response (not a TPRQ1 server?)");
}

std::vector<std::string> Client::list() {
  return decode_response<std::vector<std::string>>(
      call(Request(Op::kList)).body());
}

std::vector<RemoteDataset> Client::stat(const std::string& archive) {
  return decode_response<std::vector<RemoteDataset>>(
      call(Request(Op::kStat, archive)).body());
}

RemotePayload Client::load(const std::string& archive,
                           const std::string& dataset) {
  return decode_payload(call(Request(Op::kLoad, archive, dataset)).body());
}

RemotePayload Client::read_rows(const std::string& archive,
                                const std::string& dataset,
                                std::uint64_t row_begin,
                                std::uint64_t row_end) {
  Request req(Op::kReadRows, archive, dataset);
  req.row_begin = row_begin;
  req.row_end = row_end;
  return decode_payload(call(req).body());
}

std::vector<std::uint8_t> Client::chunk_bytes(const std::string& archive,
                                              const std::string& dataset,
                                              std::uint64_t chunk) {
  Request req(Op::kChunkBytes, archive, dataset);
  req.chunk = chunk;
  return decode_response<std::vector<std::uint8_t>>(call(req).body());
}

std::uint64_t Client::verify(const std::string& archive) {
  return decode_response<VerifyResult>(
             call(Request(Op::kVerify, archive)).body())
      .chunks;
}

query::ChunkMatchResult Client::query_chunks(const std::string& archive,
                                             const std::string& dataset,
                                             QueryCmp cmp, double threshold) {
  return decode_response<query::ChunkMatchResult>(
      call(query_request(archive, dataset, QueryKind::kChunks, 0, 0,
                         {cmp, threshold}))
          .body());
}

query::Aggregate Client::query_aggregate(const std::string& archive,
                                         const std::string& dataset,
                                         std::uint64_t row_begin,
                                         std::uint64_t row_end) {
  return decode_response<query::Aggregate>(
      call(query_request(archive, dataset, QueryKind::kAgg, row_begin,
                         row_end))
          .body());
}

query::CountResult Client::query_count(const std::string& archive,
                                       const std::string& dataset,
                                       QueryCmp cmp, double threshold,
                                       std::uint64_t row_begin,
                                       std::uint64_t row_end) {
  return decode_response<query::CountResult>(
      call(query_request(archive, dataset, QueryKind::kCount, row_begin,
                         row_end, {cmp, threshold}))
          .body());
}

query::Preview Client::query_preview(const std::string& archive,
                                     const std::string& dataset,
                                     std::uint64_t points,
                                     std::uint64_t row_begin,
                                     std::uint64_t row_end) {
  return decode_response<query::Preview>(
      call(query_request(archive, dataset, QueryKind::kPreview, row_begin,
                         row_end, {}, points))
          .body());
}

void Client::shutdown_server() { call(Request(Op::kShutdown)); }

}  // namespace net
}  // namespace transpwr
