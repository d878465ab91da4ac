#ifndef TRANSPWR_NET_HTTP_H
#define TRANSPWR_NET_HTTP_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"

namespace transpwr {
namespace net {

/// Minimal HTTP/1.1 server-side support for the `transpwr serve` JSON
/// facade. This is deliberately not a general HTTP implementation: GET
/// and HEAD only, no request bodies, no chunked transfer, no keep-alive
/// pipelining games — just enough that `curl http://host:port/archives`
/// works without a custom client. Every parse limit is strict and every
/// violation is a clean StreamError (the connection is answered with a
/// 4xx and closed), so the facade inherits the same "malformed input
/// never crashes or hangs" contract the binary protocol has.

/// Hard caps on inbound requests. A request line or header block beyond
/// these is rejected before anything is copied or allocated
/// proportionally to attacker input.
constexpr std::size_t kMaxRequestLine = 8 * 1024;
constexpr std::size_t kMaxHeaderBytes = 32 * 1024;
constexpr std::size_t kMaxHeaderCount = 64;

struct HttpRequest {
  std::string method;   // "GET", "HEAD", ...
  std::string target;   // raw request target ("/rows?range=0:8")
  std::string path;     // target before '?', percent-decoded
  std::string query;    // target after '?', raw
  std::vector<std::pair<std::string, std::string>> headers;  // lower-case keys
};

/// Parse a full request head (request line + headers, terminated by
/// CRLFCRLF or LFLF). `text` must contain exactly the head — the socket
/// layer accumulates until it sees the blank line. Throws StreamError on
/// any malformed or over-cap input.
HttpRequest parse_http_request(std::string_view text);

/// Split the raw request target into percent-decoded path and raw query.
/// Exposed for the fuzz target; parse_http_request calls it. Throws
/// StreamError on malformed percent escapes or embedded NUL/controls.
void split_target(std::string_view target, std::string* path,
                  std::string* query);

/// First value of `key` in a parsed query string ("a=1&b=2"), or nullopt.
/// Keys/values are percent-decoded; '+' decodes to space.
std::optional<std::string> query_param(std::string_view query,
                                       std::string_view key);

/// Serialize a response head alone (status line, headers, blank line)
/// for a body of `content_length` bytes the caller appends — or, for
/// HEAD, omits.
std::string http_head(int status, std::string_view reason,
                      std::string_view content_type,
                      std::size_t content_length,
                      const std::vector<std::pair<std::string, std::string>>&
                          extra_headers = {});

/// Serialize a response head + body. `content_type` may be empty to omit
/// the header (204s). Always emits Content-Length and
/// "Connection: close" — the facade answers one request per connection.
std::string http_response(int status, std::string_view reason,
                          std::string_view content_type,
                          std::string_view body,
                          const std::vector<std::pair<std::string,
                                                      std::string>>&
                              extra_headers = {});

/// Standard base64 (RFC 4648, with padding) — how the JSON facade ships
/// raw element bytes inside a JSON document.
std::string base64_encode(std::span<const std::uint8_t> bytes);

}  // namespace net
}  // namespace transpwr

#endif  // TRANSPWR_NET_HTTP_H
