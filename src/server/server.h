#ifndef TRANSPWR_SERVER_SERVER_H
#define TRANSPWR_SERVER_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "net/http.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "server/registry.h"

namespace transpwr {
namespace server {

/// Configuration for one Server. Ports are used verbatim (0 = let the
/// kernel pick an ephemeral port — the test/bench mode); the
/// TRANSPWR_SERVE_PORT / TRANSPWR_SERVE_HTTP_PORT knobs are resolved by
/// the `transpwr serve` CLI, not here, so embedded servers stay
/// deterministic. max_frame / idle_timeout_ms of 0 fall back to the
/// TRANSPWR_SERVE_MAX_FRAME / TRANSPWR_SERVE_IDLE_TIMEOUT_MS knobs,
/// then to built-in defaults (see docs/server.md).
struct ServerOptions {
  std::string dir;              ///< directory of TPAR archives to serve
  std::uint16_t port = 0;       ///< TPRQ1 port; 0 => ephemeral
  std::uint16_t http_port = 0;  ///< HTTP facade port; 0 => ephemeral
  bool enable_http = true;      ///< serve the JSON facade at all
  bool loopback_only = true;    ///< bind 127.0.0.1 (default) vs all interfaces
  std::size_t max_frame = 0;    ///< inbound TPRQ1 frame cap; 0 => env/default
  int idle_timeout_ms = 0;      ///< per-connection idle limit; 0 => env/default
};

/// What one HTTP facade request asks for. Every route but /statsz is a
/// net::Request (/healthz kPing, /archives kList, .../datasets kStat,
/// .../rows kReadRows, .../query kQuery) run through the same execute().
struct HttpRoute {
  net::Request request;
  bool statsz = false;  ///< /statsz: the live obs registry, not a Request
  bool raw = false;     ///< rows?encoding=raw instead of base64 JSON
};

/// Map a parsed request head onto its route. Throws
/// net::RequestError(kBadOp) for methods other than GET and HEAD,
/// NotFoundError for an unknown path, and ParamError for a missing or
/// malformed parameter.
HttpRoute parse_http_route(const net::HttpRequest& req);

/// The `transpwr serve` engine: a TPAR archive server whose connections
/// are pool tasks. Two listeners (TPRQ1 binary protocol + HTTP/JSON
/// facade) each run an accept loop on a dedicated thread; every accepted
/// connection is handled as a task on the shared global pool
/// (common/parallel.h), so request concurrency is bounded by the pool
/// capacity (TRANSPWR_THREADS) instead of growing a thread per client.
/// Both protocols parse into one net::Request, run through one
/// execute(), and differ only in how the result is encoded.
/// Archive handles are shared across connections through
/// ArchiveRegistry, and decoded chunks through the process-wide
/// ChunkCache — the warm path for a hot ROI is: parse frame, registry
/// hit, cache hit, memcpy, respond.
///
/// Shutdown is graceful and idempotent: request_stop() (also wired to
/// the kShutdown op and, in the CLI, to SIGINT/SIGTERM) closes the
/// listeners, wakes every connection blocked waiting for its *next*
/// request, and lets in-flight requests finish and send their
/// responses; stop()/wait() block until the last connection drains.
///
/// Observability (see docs/observability.md): `server.{connections,
/// requests,errors,bytes_in,bytes_out,http_requests}` counters, the
/// `server.active` gauge, and a `server.op_<name>` span around every
/// binary-op dispatch plus `server.http` around facade requests.
class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();  ///< stops and drains if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind both ports and start accepting. Throws NetError when a port
  /// is taken.
  void start();

  /// Bound ports (valid after start(); ephemeral requests resolved).
  std::uint16_t port() const { return tprq_port_; }
  std::uint16_t http_port() const { return http_port_; }

  /// Begin draining: refuse new connections/requests, wake idle ones.
  /// Safe to call from any thread and more than once.
  void request_stop();

  /// request_stop() + block until every connection closed and the
  /// accept threads joined.
  void stop();

  /// Block until someone stops the server (stop(), a kShutdown request,
  /// or a signal wired to request_stop()).
  void wait();

  bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Answer one request frame, or one HTTP request head, as the
  /// connection loops do; refusals are error frames / 4xx-5xx responses.
  /// Public so a request can be answered without a socket.
  std::vector<std::uint8_t> respond(const net::Frame& req);
  std::string respond_http(std::string_view head);

 private:
  void accept_loop(net::Listener& listener, bool http);
  void handle_tprq_connection(net::Socket sock);
  void handle_http_connection(net::Socket sock);

  /// Run `req` against the served directory and hand the result to
  /// `out`, the protocol's encoder. Throws on refusal.
  template <typename Out>
  typename Out::Response execute(const net::Request& req, Out& out);

  ServerOptions opts_;
  ArchiveRegistry registry_;
  std::size_t max_frame_ = 0;
  int idle_timeout_ms_ = 0;

  net::Listener tprq_listener_;
  net::Listener http_listener_;
  std::uint16_t tprq_port_ = 0;
  std::uint16_t http_port_ = 0;
  net::WakePipe wake_;

  std::thread tprq_accept_;
  std::thread http_accept_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> joined_{false};

  mutable std::mutex mu_;
  std::condition_variable drained_;   ///< active_ reached 0 while stopping
  std::condition_variable stop_requested_;  ///< wait() wakes here
  std::size_t active_ = 0;            ///< live connection tasks
};

}  // namespace server
}  // namespace transpwr

#endif  // TRANSPWR_SERVER_SERVER_H
