#ifndef TRANSPWR_NET_FRAME_IO_H
#define TRANSPWR_NET_FRAME_IO_H

#include <cstddef>

#include "net/protocol.h"
#include "net/socket.h"

namespace transpwr {
namespace net {

/// Socket-level TPRQ1 framing, shared by the client library and the
/// server's connection loop. protocol.h stays pure (spans in, frames
/// out) so it can be fuzzed and unit-tested without a socket; this is
/// the thin layer that feeds it from a connection.

/// Read one frame. Returns false on a clean EOF *between* frames (the
/// peer hung up politely). Throws NetError on timeout / wake / EOF
/// inside a frame, StreamError when the peer sent bytes that do not
/// frame (bad length, checksum mismatch) — after which the connection
/// must be dropped, since the stream can no longer be delimited.
bool read_frame(Socket& sock, std::size_t max_frame, int timeout_ms,
                int wake_fd, Frame* out);

}  // namespace net
}  // namespace transpwr

#endif  // TRANSPWR_NET_FRAME_IO_H
