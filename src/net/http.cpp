#include "net/http.h"

#include <algorithm>
#include <cctype>

namespace transpwr {
namespace net {
namespace {

bool is_token_char(char c) {
  // RFC 7230 token characters (method and header names).
  static constexpr std::string_view kExtra = "!#$%&'*+-.^_`|~";
  return std::isalnum(static_cast<unsigned char>(c)) ||
         kExtra.find(c) != std::string_view::npos;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string percent_decode(std::string_view s, bool plus_is_space) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '%') {
      if (i + 2 >= s.size())
        throw StreamError("http: truncated percent escape");
      int hi = hex_digit(s[i + 1]), lo = hex_digit(s[i + 2]);
      if (hi < 0 || lo < 0)
        throw StreamError("http: malformed percent escape");
      c = static_cast<char>(hi * 16 + lo);
      i += 2;
    } else if (plus_is_space && c == '+') {
      c = ' ';
    }
    if (c == '\0') throw StreamError("http: NUL in request target");
    out.push_back(c);
  }
  return out;
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Pop one line (terminated by CRLF or bare LF) off `rest`. Throws when
/// no terminator is present.
std::string_view take_line(std::string_view* rest) {
  std::size_t nl = rest->find('\n');
  if (nl == std::string_view::npos)
    throw StreamError("http: unterminated line");
  std::string_view line = rest->substr(0, nl);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  rest->remove_prefix(nl + 1);
  return line;
}

}  // namespace

void split_target(std::string_view target, std::string* path,
                  std::string* query) {
  if (target.empty() || target[0] != '/')
    throw StreamError("http: request target must be origin-form (/...)");
  for (char c : target) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f)
      throw StreamError("http: control byte in request target");
  }
  std::size_t q = target.find('?');
  std::string_view raw_path =
      q == std::string_view::npos ? target : target.substr(0, q);
  std::string_view raw_query =
      q == std::string_view::npos ? std::string_view() : target.substr(q + 1);
  std::string decoded = percent_decode(raw_path, /*plus_is_space=*/false);
  if (decoded.find("..") != std::string::npos)
    throw StreamError("http: dot-dot in request path");
  if (path) *path = std::move(decoded);
  if (query) query->assign(raw_query);
}

HttpRequest parse_http_request(std::string_view text) {
  if (text.size() > kMaxRequestLine + kMaxHeaderBytes)
    throw StreamError("http: request head exceeds the size cap");
  std::string_view rest = text;

  std::string_view line = take_line(&rest);
  if (line.size() > kMaxRequestLine)
    throw StreamError("http: request line exceeds the size cap");
  std::size_t sp1 = line.find(' ');
  std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos)
    throw StreamError("http: malformed request line");

  HttpRequest req;
  std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = line.substr(sp2 + 1);
  if (method.empty() || target.empty())
    throw StreamError("http: malformed request line");
  for (char c : method)
    if (!is_token_char(c)) throw StreamError("http: malformed method");
  if (version != "HTTP/1.1" && version != "HTTP/1.0")
    throw StreamError("http: unsupported version");
  req.method.assign(method);
  req.target.assign(target);
  split_target(target, &req.path, &req.query);

  while (true) {
    std::string_view h = take_line(&rest);
    if (h.empty()) break;  // blank line: end of head
    if (req.headers.size() >= kMaxHeaderCount)
      throw StreamError("http: too many headers");
    std::size_t colon = h.find(':');
    if (colon == std::string_view::npos || colon == 0)
      throw StreamError("http: malformed header line");
    std::string_view name = h.substr(0, colon);
    for (char c : name)
      if (!is_token_char(c)) throw StreamError("http: malformed header name");
    std::string_view value = h.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t'))
      value.remove_prefix(1);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t'))
      value.remove_suffix(1);
    req.headers.emplace_back(lower(name), std::string(value));
  }
  if (!rest.empty())
    throw StreamError("http: bytes after the header terminator");
  return req;
}

std::optional<std::string> query_param(std::string_view query,
                                       std::string_view key) {
  std::string_view rest = query;
  while (!rest.empty()) {
    std::size_t amp = rest.find('&');
    std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    std::size_t eq = pair.find('=');
    std::string_view k = eq == std::string_view::npos ? pair
                                                      : pair.substr(0, eq);
    std::string_view v =
        eq == std::string_view::npos ? std::string_view()
                                     : pair.substr(eq + 1);
    if (percent_decode(k, /*plus_is_space=*/true) == key)
      return percent_decode(v, /*plus_is_space=*/true);
  }
  return std::nullopt;
}

std::string http_head(int status, std::string_view reason,
                      std::string_view content_type,
                      std::size_t content_length,
                      const std::vector<std::pair<std::string, std::string>>&
                          extra_headers) {
  std::string out;
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\n";
  if (!content_type.empty()) {
    out += "Content-Type: ";
    out += content_type;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(content_length);
  out += "\r\n";
  for (const auto& [k, v] : extra_headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "Connection: close\r\n\r\n";
  return out;
}

std::string http_response(int status, std::string_view reason,
                          std::string_view content_type,
                          std::string_view body,
                          const std::vector<std::pair<std::string,
                                                      std::string>>&
                              extra_headers) {
  std::string out =
      http_head(status, reason, content_type, body.size(), extra_headers);
  out += body;
  return out;
}

std::string base64_encode(std::span<const std::uint8_t> bytes) {
  static constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    std::uint32_t v = (std::uint32_t{bytes[i]} << 16) |
                      (std::uint32_t{bytes[i + 1]} << 8) | bytes[i + 2];
    out.push_back(kAlphabet[(v >> 18) & 63]);
    out.push_back(kAlphabet[(v >> 12) & 63]);
    out.push_back(kAlphabet[(v >> 6) & 63]);
    out.push_back(kAlphabet[v & 63]);
  }
  if (i < bytes.size()) {
    std::uint32_t v = std::uint32_t{bytes[i]} << 16;
    bool two = i + 1 < bytes.size();
    if (two) v |= std::uint32_t{bytes[i + 1]} << 8;
    out.push_back(kAlphabet[(v >> 18) & 63]);
    out.push_back(kAlphabet[(v >> 12) & 63]);
    out.push_back(two ? kAlphabet[(v >> 6) & 63] : '=');
    out.push_back('=');
  }
  return out;
}

}  // namespace net
}  // namespace transpwr
