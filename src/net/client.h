#ifndef TRANSPWR_NET_CLIENT_H
#define TRANSPWR_NET_CLIENT_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/compressor.h"
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

/// kQuery results, mirrored from the src/query structs so a client does
/// not have to link the store. All statistics describe reconstructed
/// values, exactly as a local decompress-then-scan would report them.
struct RemoteChunkMatch {
  std::uint64_t chunk = 0;
  std::uint64_t row_begin = 0;
  std::uint64_t row_end = 0;
};

struct RemoteChunkMatches {
  std::vector<RemoteChunkMatch> matches;
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_pruned = 0;
  std::uint64_t chunks_decoded = 0;
};

struct RemoteAggregate {
  double min = 0;
  double max = 0;
  double sum = 0;
  std::uint64_t count = 0;
  std::uint64_t finite = 0;
  std::uint64_t nan = 0;
  std::uint64_t pos_inf = 0;
  std::uint64_t neg_inf = 0;
  std::uint64_t chunks_pruned = 0;
  std::uint64_t chunks_decoded = 0;

  double mean() const { return finite ? sum / static_cast<double>(finite) : 0; }
};

struct RemoteCount {
  std::uint64_t matching = 0;
  std::uint64_t total = 0;
  std::uint64_t chunks_pruned = 0;
  std::uint64_t chunks_decoded = 0;
};

struct RemotePreview {
  std::vector<std::uint64_t> rows;
  std::vector<double> values;
  std::uint64_t stride = 1;
  std::uint64_t chunks_decoded = 0;
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
  /// dataset.
  RemoteChunkMatches query_chunks(const std::string& archive,
                                  const std::string& dataset, QueryCmp cmp,
                                  double threshold);
  RemoteAggregate query_aggregate(const std::string& archive,
                                  const std::string& dataset,
                                  std::uint64_t row_begin = 0,
                                  std::uint64_t row_end = 0);
  RemoteCount query_count(const std::string& archive,
                          const std::string& dataset, QueryCmp cmp,
                          double threshold, std::uint64_t row_begin = 0,
                          std::uint64_t row_end = 0);
  RemotePreview query_preview(const std::string& archive,
                              const std::string& dataset,
                              std::uint64_t points,
                              std::uint64_t row_begin = 0,
                              std::uint64_t row_end = 0);

  /// Ask the server to drain and exit (it finishes in-flight requests
  /// first). The acknowledging response arrives before the drain.
  void shutdown_server();

 private:
  /// Send `body` under `op` (asking for a CRC32C-checksummed answer),
  /// await the matching response, unwrap errors into RemoteError. Returns
  /// the response frame; its body() views the received bytes.
  Frame call(Op op, std::span<const std::uint8_t> body);

  static RemotePayload parse_payload(std::span<const std::uint8_t> body);

  Socket sock_;
  std::uint32_t next_seq_ = 1;
};

}  // namespace net
}  // namespace transpwr

#endif  // TRANSPWR_NET_CLIENT_H
