#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/env.h"
#include "common/parallel.h"
#include "net/frame_io.h"
#include "obs/obs.h"
#include "query/query.h"
#include "query/query_json.h"
#include "store/archive_json.h"

namespace transpwr {
namespace server {
namespace {

constexpr int kDefaultIdleTimeoutMs = 30000;

/// Span path for one binary op — string literals so a disabled span stays
/// allocation-free.
const char* op_span(std::uint16_t op) {
  static constexpr const char* kSpans[] = {
      "server.op_unknown",     "server.op_ping",   "server.op_list",
      "server.op_stat",        "server.op_load",   "server.op_read_rows",
      "server.op_chunk_bytes", "server.op_verify", "server.op_shutdown",
      "server.op_query"};
  return kSpans[net::known_op(op) ? op : 0];
}

/// Dataset directory entry, or kErrNotFound. ArchiveReader::dataset throws
/// ParamError for an unknown name, which the protocol would misreport as
/// kBadRequest — the name was well-formed, the dataset just isn't there.
const store::DatasetInfo& find_dataset(const store::ArchiveReader& reader,
                                       const std::string& name) {
  for (const auto& ds : reader.datasets())
    if (ds.name == name) return ds;
  throw NotFoundError("serve: no such dataset: " + name);
}

/// Answers use the body checksum the request named (FNV clients predate
/// the kFlagCrc32c bit).
std::uint16_t reply_flags(const net::Frame& req) {
  return req.flags & net::kFlagCrc32c;
}

/// The ErrCode a failed request is answered with, on either protocol.
net::ErrCode error_code(const std::exception& e) {
  if (const auto* r = dynamic_cast<const net::RequestError*>(&e))
    return r->code();
  if (dynamic_cast<const NotFoundError*>(&e)) return net::ErrCode::kNotFound;
  if (dynamic_cast<const ParamError*>(&e)) return net::ErrCode::kBadRequest;
  if (dynamic_cast<const StreamError*>(&e)) return net::ErrCode::kBadState;
  return net::ErrCode::kInternal;
}

/// The HTTP status each ErrCode is answered with.
std::pair<int, const char*> http_status(net::ErrCode code) {
  switch (code) {
    case net::ErrCode::kBadRequest: return {400, "Bad Request"};
    case net::ErrCode::kBadOp: return {405, "Method Not Allowed"};
    case net::ErrCode::kNotFound: return {404, "Not Found"};
    case net::ErrCode::kBadState: return {502, "Bad Gateway"};
    case net::ErrCode::kShuttingDown: return {503, "Service Unavailable"};
    case net::ErrCode::kInternal: break;
  }
  return {500, "Internal Server Error"};
}

/// Cut a response to what a HEAD request gets: the GET response's head,
/// Content-Length included (RFC 7231), and no body.
void drop_body(std::string& resp) { resp.resize(resp.find("\r\n\r\n") + 4); }

// Every refusal goes out through one of these two, which count it in
// `server.errors` exactly once.
std::vector<std::uint8_t> tprq_refusal(const net::Frame& req,
                                       net::ErrCode code,
                                       const std::string& message) {
  obs::counter_add("server.errors");
  return net::encode_error(req.op, req.seq, code, message, reply_flags(req));
}

std::string http_refusal(std::pair<int, const char*> status,
                         const std::string& message, bool head_only) {
  obs::counter_add("server.errors");
  std::vector<std::pair<std::string, std::string>> extra;
  if (status.first == 405) extra.emplace_back("Allow", "GET, HEAD");
  std::string resp = net::http_response(status.first, status.second,
                                        "text/plain", message + "\n", extra);
  if (head_only) drop_body(resp);
  return resp;
}

/// Every rows response — TPRQ1 kLoad / kReadRows and HTTP /rows — is built
/// in one buffer. `head(dtype, dims, nbytes)` sizes the whole response from
/// the range's shape, before anything is copied, and returns it with the
/// protocol head laid out and the last `nbytes` left for the elements; the
/// rows are then copied in once, straight from the chunk cache.
template <typename Head>
auto rows_response(store::ArchiveReader& reader, const store::DatasetInfo& ds,
                   std::uint64_t row_begin, std::uint64_t row_end,
                   Head&& head) {
  const auto b = static_cast<std::size_t>(row_begin),
             e = static_cast<std::size_t>(row_end);
  const Dims dims = reader.rows_dims(ds.name, b, e);
  const std::size_t nbytes = dims.count() * size_of(ds.dtype);
  auto buf = head(ds.dtype, dims, nbytes);
  auto* end = reinterpret_cast<std::uint8_t*>(buf.data()) + buf.size();
  // One thread: handlers run on pool workers, where a decode runs inline.
  reader.read_rows_into(ds.name, b, e, {end - nbytes, nbytes},
                        /*threads=*/1);
  return buf;
}

/// TPRQ1 encoder: each result becomes the frame answering `req`.
struct FrameOut {
  using Response = std::vector<std::uint8_t>;
  const net::Frame& req;

  Response pong(std::span<const std::uint8_t> echo) {
    return body(net::encode_pong(echo));
  }
  Response list(const std::vector<std::string>& names) {
    return body(net::encode_response(names));
  }
  Response stat(const store::ArchiveReader& reader) {
    std::vector<net::RemoteDataset> dir;
    for (const auto& ds : reader.datasets())
      dir.push_back({ds.name, ds.dtype, ds.scheme, ds.dims, ds.bound,
                     ds.log_base, ds.chunks.size(), ds.compressed_bytes()});
    return body(net::encode_response(dir));
  }
  Response rows(store::ArchiveReader& reader, const store::DatasetInfo& ds,
                std::uint64_t row_begin, std::uint64_t row_end) {
    auto frame = rows_response(
        reader, ds, row_begin, row_end,
        [](DataType dtype, const Dims& dims, std::size_t) {
          return net::alloc_payload_frame(dtype, dims);
        });
    net::seal_frame(frame, req.op, reply_flags(req), req.seq);
    return frame;
  }
  Response result(const query::Executor&, const query::Predicate&,
                  const query::RowRange&, const auto& r) {
    return body(net::encode_response(r));
  }
  Response body(std::span<const std::uint8_t> bytes) {
    return net::encode_frame(req.op, reply_flags(req), req.seq, bytes);
  }
};

std::string json_quoted(std::string_view s) {
  std::string out = "\"";
  obs::json_append_escaped(out, s);
  return out += '"';
}

std::string json_response(std::string body) {
  body += '\n';
  return net::http_response(200, "OK", "application/json", body);
}

const char* dtype_name(DataType t) {
  return t == DataType::kFloat32 ? "f32" : "f64";
}

/// HTTP encoder: each result becomes a complete 200 response.
struct HttpOut {
  using Response = std::string;
  const HttpRoute& route;

  Response pong(std::span<const std::uint8_t>) {
    return net::http_response(200, "OK", "text/plain", "ok\n");
  }
  Response list(const std::vector<std::string>& names) {
    std::string body;
    for (const auto& name : names)
      body += (body.empty() ? "" : ",") + json_quoted(name);
    return json_response("{\"archives\":[" + body + "]}");
  }
  Response stat(const store::ArchiveReader& reader) {
    return json_response(store::archive_ls_json(route.request.archive, reader));
  }
  Response rows(store::ArchiveReader& reader, const store::DatasetInfo& ds,
                std::uint64_t row_begin, std::uint64_t row_end) {
    if (route.raw)
      return rows_response(
          reader, ds, row_begin, row_end,
          [](DataType dtype, const Dims& dims, std::size_t nbytes) {
            std::string r = net::http_head(
                200, "OK", "application/octet-stream", nbytes,
                {{"X-Transpwr-Dtype", dtype_name(dtype)},
                 {"X-Transpwr-Dims", dims.to_string()}});
            r.resize(r.size() + nbytes);
            return r;
          });
    Dims dims;
    auto bytes = rows_response(
        reader, ds, row_begin, row_end,
        [&](DataType, const Dims& d, std::size_t nbytes) {
          dims = d;
          return std::vector<std::uint8_t>(nbytes);
        });
    std::string shape = dims.to_string();  // "4x8x8" -> "4,8,8"
    std::replace(shape.begin(), shape.end(), 'x', ',');
    std::string body =
        "{\"archive\":" + json_quoted(route.request.archive) +
        ",\"dataset\":" + json_quoted(ds.name) + ",\"rows\":[" +
        std::to_string(row_begin) + "," + std::to_string(row_end) +
        "],\"dtype\":\"" + dtype_name(ds.dtype) + "\",\"dims\":[" + shape +
        "],\"encoding\":\"base64\",\"data\":\"";
    body += net::base64_encode(bytes);
    body += "\"}";
    return json_response(std::move(body));
  }
  template <typename Result>
  Response result(const query::Executor& ex, const query::Predicate& p,
                  const query::RowRange& rows, const Result& r) {
    if constexpr (std::is_same_v<Result, query::ChunkMatchResult>)
      return json_response(query::chunks_json(ex, p, r));
    else if constexpr (std::is_same_v<Result, query::Aggregate>)
      return json_response(query::aggregate_json(ex, rows, r));
    else if constexpr (std::is_same_v<Result, query::CountResult>)
      return json_response(query::count_json(ex, p, rows, r));
    else
      return json_response(query::preview_json(ex, rows, r));
  }
  /// kLoad, kChunkBytes, kVerify and kShutdown have no HTTP route.
  Response body(std::span<const std::uint8_t>) {
    throw std::logic_error("serve: op has no HTTP encoding");
  }
};

/// "B:E" -> [B, E). Throws ParamError on anything else.
std::pair<std::uint64_t, std::uint64_t> parse_row_range(
    const std::string& text) {
  std::size_t colon = text.find(':');
  if (colon == std::string::npos)
    throw ParamError("serve: range must be BEGIN:END");
  auto b = env::parse_u64(std::string_view(text).substr(0, colon));
  auto e = env::parse_u64(std::string_view(text).substr(colon + 1));
  if (!b || !e || *b >= *e)
    throw ParamError("serve: range must be BEGIN:END with BEGIN < END");
  return {*b, *e};
}

/// Split an HTTP path into its non-empty segments.
std::vector<std::string> path_segments(const std::string& path) {
  std::vector<std::string> segs;
  std::size_t pos = 1;  // paths always start with '/'
  while (pos <= path.size()) {
    std::size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    if (slash > pos) segs.push_back(path.substr(pos, slash - pos));
    pos = slash + 1;
  }
  return segs;
}

/// The parameters of /rows and /query. Query rows default to 0:0, which
/// execute() reads as the whole dataset.
void parse_params(const std::string& query, HttpRoute& route) {
  net::Request& r = route.request;
  if (r.op == net::Op::kReadRows) {
    auto range = net::query_param(query, "range");
    if (!range) throw ParamError("serve: rows requires ?range=BEGIN:END");
    std::tie(r.row_begin, r.row_end) = parse_row_range(*range);
    auto encoding = net::query_param(query, "encoding").value_or("base64");
    if (encoding != "base64" && encoding != "raw")
      throw ParamError("serve: encoding must be base64 or raw");
    route.raw = encoding == "raw";
    return;
  }
  auto op = net::query_param(query, "op");
  if (!op)
    throw ParamError("serve: query requires ?op=chunks|agg|count|preview");
  if (auto rows = net::query_param(query, "rows"))
    std::tie(r.row_begin, r.row_end) = parse_row_range(*rows);
  if (*op == "chunks" || *op == "count") {
    r.kind = *op == "chunks" ? net::QueryKind::kChunks
                             : net::QueryKind::kCount;
    auto where = net::query_param(query, "where");
    if (!where)
      throw ParamError("serve: query op=" + *op +
                       " requires ?where=CMP:THRESHOLD");
    r.predicate = query::parse_predicate(*where);
  } else if (*op == "agg") {
    r.kind = net::QueryKind::kAgg;
  } else if (*op == "preview") {
    r.kind = net::QueryKind::kPreview;
    r.points = 64;
    if (auto pstr = net::query_param(query, "points")) {
      auto v = env::parse_u64(*pstr);
      if (!v || *v == 0)
        throw ParamError("serve: points must be a positive integer");
      r.points = *v;
    }
  } else {
    throw ParamError("serve: unknown query op: " + *op);
  }
}

}  // namespace

HttpRoute parse_http_route(const net::HttpRequest& req) {
  if (req.method != "GET" && req.method != "HEAD")
    throw net::RequestError(net::ErrCode::kBadOp, "GET and HEAD only");
  HttpRoute route;
  const auto s = path_segments(req.path);
  const bool in_archive =
      s.size() >= 3 && s[0] == "archives" && s[2] == "datasets";
  if (req.path == "/healthz") {
    route.request.op = net::Op::kPing;
  } else if (req.path == "/statsz") {
    route.statsz = true;
  } else if (req.path == "/archives") {
    route.request.op = net::Op::kList;
  } else if (in_archive && s.size() == 3) {
    route.request = net::Request(net::Op::kStat, s[1]);
  } else if (in_archive && s.size() == 5 &&
             (s[4] == "rows" || s[4] == "query")) {
    route.request = net::Request(
        s[4] == "rows" ? net::Op::kReadRows : net::Op::kQuery, s[1], s[3]);
    parse_params(req.query, route);
  } else {
    throw NotFoundError("serve: no route for " + req.path);
  }
  return route;
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), registry_(opts_.dir) {
  if (opts_.max_frame != 0) {
    max_frame_ = std::max(opts_.max_frame, net::kMinMaxFrame);
  } else {
    max_frame_ = static_cast<std::size_t>(
        env::checked_size_bytes("TRANSPWR_SERVE_MAX_FRAME",
                                {/*min=*/net::kMinMaxFrame,
                                 /*max=*/std::uint64_t{1} << 30,
                                 /*clamp=*/true})
            .value_or(net::kDefaultMaxFrame));
  }
  if (opts_.idle_timeout_ms != 0) {
    idle_timeout_ms_ = opts_.idle_timeout_ms;  // < 0: block forever
  } else {
    idle_timeout_ms_ = static_cast<int>(
        env::checked_duration_ms("TRANSPWR_SERVE_IDLE_TIMEOUT_MS",
                                 {/*min=*/1, /*max=*/86400000,
                                  /*clamp=*/true})
            .value_or(kDefaultIdleTimeoutMs));
  }
}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) stop();
}

void Server::start() {
  if (started_.exchange(true, std::memory_order_acq_rel))
    throw ParamError("serve: start() called twice");
  // Bind both ports before spawning either accept thread, so a taken
  // HTTP port fails start() cleanly with no thread to unwind.
  tprq_listener_ = net::Listener(opts_.port, opts_.loopback_only);
  tprq_port_ = tprq_listener_.port();
  if (opts_.enable_http) {
    http_listener_ = net::Listener(opts_.http_port, opts_.loopback_only);
    http_port_ = http_listener_.port();
  }
  tprq_accept_ = std::thread([this] { accept_loop(tprq_listener_, false); });
  if (opts_.enable_http)
    http_accept_ = std::thread([this] { accept_loop(http_listener_, true); });
}

void Server::request_stop() {
  // Async-signal-safe on purpose (the CLI wires SIGINT/SIGTERM here):
  // one atomic exchange plus one self-pipe write, no locks. The wake
  // byte is never consumed, so every poll on the pipe — accept loops and
  // connections idle between requests — wakes from now on.
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  wake_.wake();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_.load(std::memory_order_acquire))
    stop_requested_.wait_for(lock, std::chrono::milliseconds(100));
}

void Server::stop() {
  request_stop();
  if (!started_.load(std::memory_order_acquire)) return;
  if (!joined_.exchange(true, std::memory_order_acq_rel)) {
    if (tprq_accept_.joinable()) tprq_accept_.join();
    if (http_accept_.joinable()) http_accept_.join();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock, [this] { return active_ == 0; });
  }
  tprq_listener_.close();
  http_listener_.close();
  registry_.clear();
}

void Server::accept_loop(net::Listener& listener, bool http) {
  while (!stopping()) {
    net::Socket sock;
    try {
      sock = listener.accept(wake_.read_fd());
    } catch (const Error&) {
      if (stopping()) break;
      continue;  // transient accept failure (e.g. peer reset in backlog)
    }
    if (!sock.valid() || stopping()) break;  // woken: draining
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++active_;
      obs::gauge_set("server.active", static_cast<double>(active_));
    }
    obs::counter_add(http ? "server.http_connections" : "server.connections");
    // ThreadPool tasks are copyable std::functions; Socket is move-only,
    // so the connection rides in a shared_ptr.
    auto shared = std::make_shared<net::Socket>(std::move(sock));
    global_pool().submit([this, shared, http] {
      try {
        if (http)
          handle_http_connection(std::move(*shared));
        else
          handle_tprq_connection(std::move(*shared));
      } catch (...) {
        // A connection failure never takes down the server.
      }
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      obs::gauge_set("server.active", static_cast<double>(active_));
      if (active_ == 0) drained_.notify_all();
    });
  }
}

void Server::handle_tprq_connection(net::Socket sock) {
  while (true) {
    net::Frame req;
    try {
      if (!net::read_frame(sock, max_frame_, idle_timeout_ms_,
                           wake_.read_fd(), &req))
        break;  // clean hangup between frames
    } catch (const net::NetError&) {
      break;  // idle timeout, shutdown wake, or mid-frame hangup
    } catch (const StreamError& e) {
      // The peer sent bytes that do not frame; the stream can no longer
      // be delimited, so answer best-effort and drop the connection.
      try {
        sock.send_all(tprq_refusal({}, net::ErrCode::kBadRequest, e.what()));
      } catch (...) {
      }
      break;
    }
    obs::counter_add("server.requests");
    obs::counter_add("server.bytes_in",
                     net::kLenPrefix + req.tail.size());
    const auto resp = respond(req);
    obs::counter_add("server.bytes_out", resp.size());
    try {
      sock.send_all(resp);
    } catch (const Error&) {
      break;
    }
    if (stopping()) break;  // kShutdown acknowledged (or drain began)
  }
  sock.close();
}

std::vector<std::uint8_t> Server::respond(const net::Frame& req) {
  obs::Span span(op_span(req.op));
  try {
    FrameOut out{req};
    return execute(net::decode_request(req.op, req.body()), out);
  } catch (const std::exception& e) {
    return tprq_refusal(req, error_code(e), e.what());
  }
}

template <typename Out>
typename Out::Response Server::execute(const net::Request& req, Out& out) {
  if (stopping() && req.op != net::Op::kShutdown)
    throw net::RequestError(net::ErrCode::kShuttingDown,
                            "server is draining");
  if (req.op == net::Op::kPing) return out.pong(req.echo);
  if (req.op == net::Op::kList) return out.list(registry_.list());
  if (req.op == net::Op::kShutdown) {
    // Acknowledge first (the caller's write happens after we return),
    // then begin the drain; the connection loop exits after sending.
    request_stop();
    return out.body({});
  }
  auto reader = registry_.open(req.archive);
  if (req.op == net::Op::kStat) return out.stat(*reader);
  if (req.op == net::Op::kVerify) {
    reader->verify();
    net::VerifyResult v{reader->datasets().size(), 0, 0};
    for (const auto& ds : reader->datasets()) {
      v.chunks += ds.chunks.size();
      v.payload_bytes += ds.compressed_bytes();
    }
    return out.body(net::encode_response(v));
  }
  const store::DatasetInfo& ds = find_dataset(*reader, req.dataset);
  if (req.op == net::Op::kLoad) return out.rows(*reader, ds, 0, ds.dims[0]);
  if (req.op == net::Op::kReadRows)
    return out.rows(*reader, ds, req.row_begin, req.row_end);
  if (req.op == net::Op::kChunkBytes) {
    if (req.chunk >= ds.chunks.size())
      throw NotFoundError("serve: chunk " + std::to_string(req.chunk) +
                          " out of range for " + req.dataset);
    return out.body(net::encode_response(reader->read_chunk_bytes(
        req.dataset, static_cast<std::size_t>(req.chunk))));
  }
  // kQuery. Rows 0:0 mean the whole dataset.
  query::Executor ex(*reader, req.dataset);
  query::RowRange range{req.row_begin, req.row_end};
  if (range.begin == 0 && range.end == 0) range = ex.full_range();
  const query::Predicate& p = req.predicate;
  switch (req.kind) {
    case net::QueryKind::kChunks:
      return out.result(ex, p, range, ex.find_chunks(p));
    case net::QueryKind::kAgg:
      return out.result(ex, p, range, ex.aggregate(range));
    case net::QueryKind::kCount:
      return out.result(ex, p, range, ex.count_where(p, range));
    case net::QueryKind::kPreview:
      return out.result(ex, p, range, ex.preview(req.points, range));
  }
  throw std::logic_error("serve: unknown query kind");
}

void Server::handle_http_connection(net::Socket sock) {
  // One request per connection: accumulate the head (request line +
  // headers) up to the blank line, with the same hard caps the parser
  // enforces, then answer.
  std::string head;
  const std::size_t cap = net::kMaxRequestLine + net::kMaxHeaderBytes;
  std::size_t len = 0;  // the head's length through its blank line
  while (len == 0) {
    std::uint8_t buf[4096];
    std::size_t n;
    try {
      n = sock.recv_some(buf, idle_timeout_ms_, wake_.read_fd());
    } catch (const net::NetError&) {
      return;  // timeout / shutdown wake / reset: drop silently
    }
    if (n == 0) return;  // peer hung up before completing a request
    head.append(reinterpret_cast<const char*>(buf), n);
    // The blank line ends with CRLF or a bare LF.
    const std::size_t lf = std::min(head.find("\n\n"), head.find("\n\r\n"));
    if (lf != std::string::npos) {
      len = lf + (head[lf + 1] == '\r' ? 3 : 2);
    } else if (head.size() > cap) {
      try {
        sock.send_all(http_refusal({431, "Request Header Fields Too Large"},
                                   "request head too large", false));
      } catch (...) {
      }
      return;
    }
  }
  obs::counter_add("server.http_requests");
  obs::Span span("server.http");  // covers writing the response too
  try {
    sock.send_all(respond_http(std::string_view(head).substr(0, len)));
  } catch (const Error&) {
  }
  sock.close();
}

std::string Server::respond_http(std::string_view head) {
  net::HttpRequest http;
  try {
    http = net::parse_http_request(head);
  } catch (const Error& e) {
    return http_refusal(http_status(net::ErrCode::kBadRequest), e.what(),
                        false);
  }
  const bool head_only = http.method == "HEAD";
  try {
    const HttpRoute route = parse_http_route(http);
    HttpOut out{route};
    std::string resp =
        route.statsz ? json_response(obs::to_json(
                           obs::snapshot(), {{"endpoint", "statsz"},
                                             {"dir", registry_.dir()}}))
                     : execute(route.request, out);
    if (head_only) drop_body(resp);
    return resp;
  } catch (const std::exception& e) {
    return http_refusal(http_status(error_code(e)), e.what(), head_only);
  }
}

}  // namespace server
}  // namespace transpwr
