#include "net/frame_io.h"

#include <utility>

namespace transpwr {
namespace net {

bool read_frame(Socket& sock, std::size_t max_frame, int timeout_ms,
                int wake_fd, Frame* out) {
  std::uint8_t prefix[kLenPrefix];
  if (!sock.recv_exact(prefix, timeout_ms, wake_fd)) return false;
  std::size_t len = parse_frame_len(prefix, max_frame);
  std::vector<std::uint8_t> tail(len);
  if (!sock.recv_exact(tail, timeout_ms, wake_fd))
    throw NetError("tprq1: peer closed after the length prefix");
  *out = parse_frame_tail(std::move(tail));
  return true;
}

}  // namespace net
}  // namespace transpwr
