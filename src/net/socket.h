#ifndef TRANSPWR_NET_SOCKET_H
#define TRANSPWR_NET_SOCKET_H

#include <cstdint>
#include <span>
#include <string>

#include "common/error.h"

namespace transpwr {
namespace net {

/// Thrown for socket-layer failures: refused connections, resets, short
/// reads caused by a peer hangup, poll timeouts. Distinct from
/// StreamError so callers can tell "the bytes were bad" from "the wire
/// went away".
class NetError : public Error {
 public:
  explicit NetError(const std::string& what) : Error(what) {}
};

/// RAII TCP connection (client or accepted). Move-only; closes on
/// destruction. All reads honour a caller-supplied timeout and an
/// optional wake fd so a blocked server connection can be interrupted by
/// shutdown instead of hanging until its peer disappears.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connect to `host:port` (numeric IPv4 host, e.g. "127.0.0.1").
  /// Throws NetError on failure.
  static Socket connect(const std::string& host, std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Write all of `bytes`; EINTR-safe. Throws NetError on error or peer
  /// reset. SIGPIPE is suppressed (MSG_NOSIGNAL).
  void send_all(std::span<const std::uint8_t> bytes);
  void send_all(std::string_view text);

  /// Read exactly `out.size()` bytes. `timeout_ms < 0` blocks forever.
  /// Returns false when the peer closed cleanly *before the first byte*;
  /// throws NetError on mid-message EOF, error, timeout, or wake-fd
  /// interruption (so a half-frame never silently succeeds).
  bool recv_exact(std::span<std::uint8_t> out, int timeout_ms = -1,
                  int wake_fd = -1);

  /// Read at most `out.size()` bytes, returning the count (0 = clean
  /// EOF). Throws NetError on error/timeout/wake.
  std::size_t recv_some(std::span<std::uint8_t> out, int timeout_ms = -1,
                        int wake_fd = -1);

  void close();

 private:
  int fd_ = -1;
};

/// Listening TCP socket. Binds with SO_REUSEADDR; `port == 0` picks an
/// ephemeral port (tests, benches) recoverable via `port()`.
class Listener {
 public:
  Listener() = default;
  /// `loopback_only` binds 127.0.0.1 (the default — serving all
  /// interfaces is an explicit deployment decision, see docs/server.md).
  explicit Listener(std::uint16_t port, bool loopback_only = true);
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Accept one connection. Blocks until a peer arrives or `wake_fd`
  /// becomes readable; returns an invalid Socket on wake (shutdown) and
  /// throws NetError on listener failure.
  Socket accept(int wake_fd = -1);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Self-pipe used to interrupt blocking accepts/reads from another
/// thread (signal handlers write one byte; poll loops watch fd()).
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int read_fd() const { return fds_[0]; }
  /// Async-signal-safe: one write(2) of one byte.
  void wake();

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace net
}  // namespace transpwr

#endif  // TRANSPWR_NET_SOCKET_H
