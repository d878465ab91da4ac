#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace transpwr {
namespace net {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw NetError(std::string(what) + ": " + std::strerror(errno));
}

/// Wait until `fd` is readable. Returns false when `wake_fd` fired or
/// the timeout expired without data; throws on poll failure.
/// `timeout_ms < 0` waits forever.
bool wait_readable(int fd, int timeout_ms, int wake_fd, bool* timed_out) {
  struct pollfd pfds[2];
  pfds[0] = {fd, POLLIN, 0};
  nfds_t n = 1;
  if (wake_fd >= 0) {
    pfds[1] = {wake_fd, POLLIN, 0};
    n = 2;
  }
  if (timed_out) *timed_out = false;
  while (true) {
    int rc = ::poll(pfds, n, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (rc == 0) {
      if (timed_out) *timed_out = true;
      return false;
    }
    if (n == 2 && (pfds[1].revents & (POLLIN | POLLERR | POLLHUP)))
      return false;
    if (pfds[0].revents & (POLLIN | POLLERR | POLLHUP)) return true;
  }
}

}  // namespace

// --- Socket ------------------------------------------------------------------

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect(const std::string& host, std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw NetError("connect: bad IPv4 address " + host);
  }
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
         0) {
    if (errno == EINTR) continue;
    int saved = errno;
    ::close(fd);
    throw NetError("connect " + host + ":" + std::to_string(port) + ": " +
                   std::strerror(saved));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Socket(fd);
}

void Socket::send_all(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) throw NetError("send on a closed socket");
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

void Socket::send_all(std::string_view text) {
  send_all(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::size_t Socket::recv_some(std::span<std::uint8_t> out, int timeout_ms,
                              int wake_fd) {
  if (fd_ < 0) throw NetError("recv on a closed socket");
  bool timed_out = false;
  if (!wait_readable(fd_, timeout_ms, wake_fd, &timed_out))
    throw NetError(timed_out ? "recv: timed out" : "recv: interrupted");
  while (true) {
    ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    return static_cast<std::size_t>(n);
  }
}

bool Socket::recv_exact(std::span<std::uint8_t> out, int timeout_ms,
                        int wake_fd) {
  std::size_t off = 0;
  while (off < out.size()) {
    std::size_t n = recv_some(out.subspan(off), timeout_ms, wake_fd);
    if (n == 0) {
      if (off == 0) return false;  // clean EOF between messages
      throw NetError("recv: peer closed mid-message (" +
                     std::to_string(off) + "/" +
                     std::to_string(out.size()) + " bytes)");
    }
    off += n;
  }
  return true;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- Listener ----------------------------------------------------------------

Listener::Listener(std::uint16_t port, bool loopback_only) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr =
      htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw NetError("bind port " + std::to_string(port) + ": " +
                   std::strerror(saved));
  }
  if (::listen(fd_, 64) != 0) {
    int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw NetError(std::string("listen: ") + std::strerror(saved));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw NetError(std::string("getsockname: ") + std::strerror(saved));
  }
  port_ = ntohs(addr.sin_port);
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Socket Listener::accept(int wake_fd) {
  if (fd_ < 0) throw NetError("accept on a closed listener");
  while (true) {
    if (!wait_readable(fd_, -1, wake_fd, nullptr)) return Socket();
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK)
        continue;
      throw_errno("accept");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return Socket(fd);
  }
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- WakePipe ----------------------------------------------------------------

WakePipe::WakePipe() {
  if (::pipe(fds_) != 0) throw_errno("pipe");
  // Non-blocking writes: a signal handler must never block on a full
  // pipe, and one pending byte is enough to wake every poll loop.
  ::fcntl(fds_[1], F_SETFL, O_NONBLOCK);
}

WakePipe::~WakePipe() {
  if (fds_[0] >= 0) ::close(fds_[0]);
  if (fds_[1] >= 0) ::close(fds_[1]);
}

void WakePipe::wake() {
  char b = 1;
  // Best-effort: EAGAIN means a wake byte is already pending.
  [[maybe_unused]] ssize_t rc = ::write(fds_[1], &b, 1);
}

}  // namespace net
}  // namespace transpwr
