#ifndef TRANSPWR_NET_CLIENT_H
#define TRANSPWR_NET_CLIENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"

namespace transpwr {
namespace net {

/// Thrown when the server answered with a TPRQ1 error frame. The wire
/// never crashes a client: a refused request is a typed exception, not a
/// protocol violation.
class RemoteError : public Error {
 public:
  RemoteError(ErrCode code, const std::string& message)
      : Error("server: " + message), code_(code) {}
  ErrCode code() const { return code_; }

 private:
  ErrCode code_;
};

/// Synchronous TPRQ1 client over one TCP connection. Used by the
/// `transpwr serve` tests, the `bench_serve` load generator, and any C++
/// application that wants archive reads without linking the store.
///
/// Not thread-safe: one Client per thread (connections are cheap; the
/// server shares archive handles across all of them server-side).
class Client {
 public:
  /// Connect and ping: the constructor fails fast (NetError /
  /// StreamError) when the peer is not a TPRQ1 server.
  Client(const std::string& host, std::uint16_t port);

  /// Round-trip an echo payload; returns the server's magic check.
  void ping();

  /// Archive names in the served directory (sorted).
  std::vector<std::string> list();

  /// Dataset directory of `archive`.
  std::vector<RemoteDataset> stat(const std::string& archive);

  /// Decode a whole dataset.
  RemotePayload load(const std::string& archive, const std::string& dataset);

  /// Decode rows [row_begin, row_end) along the slowest dimension.
  RemotePayload read_rows(const std::string& archive,
                          const std::string& dataset, std::uint64_t row_begin,
                          std::uint64_t row_end);

  /// One chunk's raw compressed scheme stream (checksum-verified
  /// server-side).
  std::vector<std::uint8_t> chunk_bytes(const std::string& archive,
                                        const std::string& dataset,
                                        std::uint64_t chunk);

  /// Eagerly checksum every chunk of `archive` server-side. Returns the
  /// number of chunks scanned.
  std::uint64_t verify(const std::string& archive);

  /// Compressed-domain queries (kQuery), answered from the archive's
  /// per-chunk summary blocks where possible. Row range 0:0 = whole
  /// dataset. The results are the query:: structs a local Executor returns.
  query::ChunkMatchResult query_chunks(const std::string& archive,
                                       const std::string& dataset,
                                       QueryCmp cmp, double threshold);
  query::Aggregate query_aggregate(const std::string& archive,
                                   const std::string& dataset,
                                   std::uint64_t row_begin = 0,
                                   std::uint64_t row_end = 0);
  query::CountResult query_count(const std::string& archive,
                                 const std::string& dataset, QueryCmp cmp,
                                 double threshold,
                                 std::uint64_t row_begin = 0,
                                 std::uint64_t row_end = 0);
  query::Preview query_preview(const std::string& archive,
                               const std::string& dataset,
                               std::uint64_t points,
                               std::uint64_t row_begin = 0,
                               std::uint64_t row_end = 0);

  /// Ask the server to drain and exit (it finishes in-flight requests
  /// first). The acknowledging response arrives before the drain.
  void shutdown_server();

 private:
  /// Send `req` (asking for a CRC32C-checksummed answer), await the
  /// matching response, unwrap errors into RemoteError. Returns the
  /// response frame; its body() views the received bytes.
  Frame call(const Request& req);

  Socket sock_;
  std::uint32_t next_seq_ = 1;
};

}  // namespace net
}  // namespace transpwr

#endif  // TRANSPWR_NET_CLIENT_H
