#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include <cmath>

#include "common/bytestream.h"
#include "common/decode_guard.h"
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
constexpr std::size_t kMaxPingEcho = 64;

/// Span path for one binary op — string literals so a disabled span stays
/// allocation-free.
const char* op_span(std::uint16_t op) {
  switch (static_cast<net::Op>(op)) {
    case net::Op::kPing: return "server.op_ping";
    case net::Op::kList: return "server.op_list";
    case net::Op::kStat: return "server.op_stat";
    case net::Op::kLoad: return "server.op_load";
    case net::Op::kReadRows: return "server.op_read_rows";
    case net::Op::kChunkBytes: return "server.op_chunk_bytes";
    case net::Op::kVerify: return "server.op_verify";
    case net::Op::kShutdown: return "server.op_shutdown";
    case net::Op::kQuery: return "server.op_query";
  }
  return "server.op_unknown";
}

void require_drained(ByteReader& in, const char* op) {
  if (in.remaining() != 0)
    throw ParamError(std::string("serve: trailing bytes in ") + op +
                     " request body");
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

/// Every rows response — TPRQ1 kLoad / kReadRows and HTTP /rows — is built
/// in one buffer. `head(dtype, dims, nbytes)` sizes the whole response from
/// the range's shape, before anything is copied, and returns it with the
/// protocol head laid out and the last `nbytes` left for the elements; the
/// rows are then copied in once, straight from the chunk cache.
template <typename Head>
auto rows_response(store::ArchiveReader& reader, const std::string& dataset,
                   std::uint64_t row_begin, std::uint64_t row_end,
                   std::size_t threads, Head&& head) {
  const DataType dtype = find_dataset(reader, dataset).dtype;
  const auto b = static_cast<std::size_t>(row_begin);
  const auto e = static_cast<std::size_t>(row_end);
  const Dims dims = reader.rows_dims(dataset, b, e);
  const std::size_t nbytes = dims.count() * size_of(dtype);
  auto buf = head(dtype, dims, nbytes);
  auto* end = reinterpret_cast<std::uint8_t*>(buf.data()) + buf.size();
  reader.read_rows_into(dataset, b, e, {end - nbytes, nbytes}, threads);
  return buf;
}

std::string json_quoted(std::string_view s) {
  std::string out;
  out += '"';
  obs::json_append_escaped(out, s);
  out += '"';
  return out;
}

/// Validate the wire form of a query predicate (u8 cmp + f64 threshold).
query::Predicate wire_predicate(std::uint8_t cmp, double threshold) {
  if (cmp < static_cast<std::uint8_t>(net::QueryCmp::kGt) ||
      cmp > static_cast<std::uint8_t>(net::QueryCmp::kLe))
    throw ParamError("serve: bad query comparison byte");
  if (!std::isfinite(threshold))
    throw ParamError("serve: query threshold must be finite");
  return {static_cast<query::Cmp>(cmp), threshold};
}

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

}  // namespace

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
      obs::counter_add("server.errors");
      try {
        net::write_frame(sock, net::encode_error(0, 0,
                                                 net::ErrCode::kBadRequest,
                                                 e.what()));
      } catch (...) {
      }
      break;
    }
    obs::counter_add("server.requests");
    obs::counter_add("server.bytes_in",
                     net::kLenPrefix + req.tail.size());
    std::vector<std::uint8_t> resp;
    if (stopping() &&
        req.op != static_cast<std::uint16_t>(net::Op::kShutdown)) {
      resp = net::encode_error(req.op, req.seq, net::ErrCode::kShuttingDown,
                               "server is draining", reply_flags(req));
    } else {
      resp = dispatch(req);
    }
    obs::counter_add("server.bytes_out", resp.size());
    try {
      net::write_frame(sock, resp);
    } catch (const Error&) {
      break;
    }
    if (stopping()) break;  // kShutdown acknowledged (or drain began)
  }
  sock.close();
}

std::vector<std::uint8_t> Server::dispatch(const net::Frame& req) {
  obs::Span span(op_span(req.op));
  try {
    return handle_op(req);
  } catch (const NotFoundError& e) {
    obs::counter_add("server.errors");
    return net::encode_error(req.op, req.seq, net::ErrCode::kNotFound,
                             e.what(), reply_flags(req));
  } catch (const ParamError& e) {
    obs::counter_add("server.errors");
    return net::encode_error(req.op, req.seq, net::ErrCode::kBadRequest,
                             e.what(), reply_flags(req));
  } catch (const StreamError& e) {
    obs::counter_add("server.errors");
    return net::encode_error(req.op, req.seq, net::ErrCode::kBadState,
                             e.what(), reply_flags(req));
  } catch (const std::exception& e) {
    obs::counter_add("server.errors");
    return net::encode_error(req.op, req.seq, net::ErrCode::kInternal,
                             e.what(), reply_flags(req));
  }
}

std::vector<std::uint8_t> Server::handle_op(const net::Frame& req) {
  if (!net::known_op(req.op))
    return net::encode_error(req.op, req.seq, net::ErrCode::kBadOp,
                             "unknown op " + std::to_string(req.op),
                             reply_flags(req));
  ByteReader in(req.body());
  ByteWriter out;
  switch (static_cast<net::Op>(req.op)) {
    case net::Op::kPing: {
      if (req.body().size() > kMaxPingEcho)
        throw ParamError("serve: ping echo payload too large");
      out.put_bytes(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(net::kMagic),
          sizeof net::kMagic));
      out.put_bytes(req.body());
      break;
    }
    case net::Op::kList: {
      require_drained(in, "list");
      auto names = registry_.list();
      out.put<std::uint32_t>(static_cast<std::uint32_t>(names.size()));
      for (const auto& n : names) net::put_string(out, n);
      break;
    }
    case net::Op::kStat: {
      auto archive = net::get_string(in);
      require_drained(in, "stat");
      auto reader = registry_.open(archive);
      const auto& dir = reader->datasets();
      out.put<std::uint32_t>(static_cast<std::uint32_t>(dir.size()));
      for (const auto& ds : dir) {
        net::put_string(out, ds.name);
        out.put<std::uint8_t>(static_cast<std::uint8_t>(ds.dtype));
        out.put<std::uint8_t>(static_cast<std::uint8_t>(ds.scheme));
        out.put<std::uint8_t>(static_cast<std::uint8_t>(ds.dims.nd));
        for (int i = 0; i < 3; ++i)
          out.put<std::uint64_t>(ds.dims.d[static_cast<std::size_t>(i)]);
        out.put<double>(ds.bound);
        out.put<double>(ds.log_base);
        out.put<std::uint64_t>(ds.chunks.size());
        out.put<std::uint64_t>(ds.compressed_bytes());
      }
      break;
    }
    case net::Op::kLoad:
    case net::Op::kReadRows: {
      const bool load = req.op == static_cast<std::uint16_t>(net::Op::kLoad);
      auto archive = net::get_string(in);
      auto dataset = net::get_string(in);
      std::uint64_t row_begin = 0, row_end = 0;
      if (!load) {
        row_begin = in.get<std::uint64_t>();
        row_end = in.get<std::uint64_t>();
      }
      require_drained(in, load ? "load" : "read_rows");
      auto reader = registry_.open(archive);
      if (load) row_end = find_dataset(*reader, dataset).dims[0];
      auto frame = rows_response(
          *reader, dataset, row_begin, row_end, opts_.decode_threads,
          [](DataType dtype, const Dims& dims, std::size_t) {
            return net::alloc_payload_frame(dtype, dims);
          });
      net::seal_frame(frame, req.op, reply_flags(req), req.seq);
      return frame;
    }
    case net::Op::kChunkBytes: {
      auto archive = net::get_string(in);
      auto dataset = net::get_string(in);
      auto chunk = in.get<std::uint64_t>();
      require_drained(in, "chunk_bytes");
      auto reader = registry_.open(archive);
      const auto& ds = find_dataset(*reader, dataset);
      if (chunk >= ds.chunks.size())
        throw NotFoundError("serve: chunk " + std::to_string(chunk) +
                            " out of range for " + dataset);
      auto bytes = reader->read_chunk_bytes(
          dataset, static_cast<std::size_t>(chunk));
      out.put_sized(bytes);
      break;
    }
    case net::Op::kVerify: {
      auto archive = net::get_string(in);
      require_drained(in, "verify");
      auto reader = registry_.open(archive);
      reader->verify();
      std::uint64_t chunks = 0, payload = 0;
      for (const auto& ds : reader->datasets()) {
        chunks += ds.chunks.size();
        payload += ds.compressed_bytes();
      }
      out.put<std::uint64_t>(reader->datasets().size());
      out.put<std::uint64_t>(chunks);
      out.put<std::uint64_t>(payload);
      break;
    }
    case net::Op::kQuery: {
      auto archive = net::get_string(in);
      auto dataset = net::get_string(in);
      auto kind_byte = in.get<std::uint8_t>();
      auto cmp_byte = in.get<std::uint8_t>();
      auto threshold = in.get<double>();
      auto row_begin = in.get<std::uint64_t>();
      auto row_end = in.get<std::uint64_t>();
      auto points = in.get<std::uint64_t>();
      require_drained(in, "query");
      if (kind_byte < static_cast<std::uint8_t>(net::QueryKind::kChunks) ||
          kind_byte > static_cast<std::uint8_t>(net::QueryKind::kPreview))
        throw ParamError("serve: bad query kind byte");
      auto reader = registry_.open(archive);
      find_dataset(*reader, dataset);  // NotFound, not Executor's ParamError
      query::Executor ex(*reader, dataset);
      const query::RowRange range{row_begin, row_end};
      switch (static_cast<net::QueryKind>(kind_byte)) {
        case net::QueryKind::kChunks: {
          auto r = ex.find_chunks(wire_predicate(cmp_byte, threshold));
          out.put<std::uint64_t>(r.chunks_total);
          out.put<std::uint64_t>(r.chunks_pruned);
          out.put<std::uint64_t>(r.chunks_decoded);
          out.put<std::uint32_t>(static_cast<std::uint32_t>(
              r.matches.size()));
          for (const auto& m : r.matches) {
            out.put<std::uint64_t>(m.chunk);
            out.put<std::uint64_t>(m.row_begin);
            out.put<std::uint64_t>(m.row_end);
          }
          break;
        }
        case net::QueryKind::kAgg: {
          auto a = ex.aggregate(range);
          out.put<double>(a.min);
          out.put<double>(a.max);
          out.put<double>(a.sum);
          out.put<std::uint64_t>(a.count);
          out.put<std::uint64_t>(a.finite);
          out.put<std::uint64_t>(a.nan);
          out.put<std::uint64_t>(a.pos_inf);
          out.put<std::uint64_t>(a.neg_inf);
          out.put<std::uint64_t>(a.chunks_pruned);
          out.put<std::uint64_t>(a.chunks_decoded);
          break;
        }
        case net::QueryKind::kCount: {
          auto r = ex.count_where(wire_predicate(cmp_byte, threshold), range);
          out.put<std::uint64_t>(r.matching);
          out.put<std::uint64_t>(r.total);
          out.put<std::uint64_t>(r.chunks_pruned);
          out.put<std::uint64_t>(r.chunks_decoded);
          break;
        }
        case net::QueryKind::kPreview: {
          auto pv = ex.preview(points, range);
          out.put<std::uint64_t>(pv.stride);
          out.put<std::uint64_t>(pv.chunks_decoded);
          out.put<std::uint32_t>(static_cast<std::uint32_t>(
              pv.rows.size()));
          for (std::size_t i = 0; i < pv.rows.size(); ++i) {
            out.put<std::uint64_t>(pv.rows[i]);
            out.put<double>(pv.values[i]);
          }
          break;
        }
      }
      break;
    }
    case net::Op::kShutdown: {
      require_drained(in, "shutdown");
      // Acknowledge first (the caller's write happens after we return),
      // then begin the drain; the connection loop exits after sending.
      request_stop();
      break;
    }
  }
  auto body = out.take();
  return net::encode_frame(req.op, reply_flags(req), req.seq, body);
}

void Server::handle_http_connection(net::Socket sock) {
  // One request per connection: accumulate the head (request line +
  // headers) up to the blank line, with the same hard caps the parser
  // enforces, then route and answer.
  std::string head;
  const std::size_t cap = net::kMaxRequestLine + net::kMaxHeaderBytes;
  std::size_t end = std::string::npos;
  std::size_t term = 0;
  while (end == std::string::npos) {
    std::uint8_t buf[4096];
    std::size_t n;
    try {
      n = sock.recv_some(buf, idle_timeout_ms_, wake_.read_fd());
    } catch (const net::NetError&) {
      return;  // timeout / shutdown wake / reset: drop silently
    }
    if (n == 0) return;  // peer hung up before completing a request
    head.append(reinterpret_cast<const char*>(buf), n);
    std::size_t crlf = head.find("\r\n\r\n");
    std::size_t lflf = head.find("\n\n");
    if (crlf != std::string::npos && (lflf == std::string::npos ||
                                      crlf < lflf)) {
      end = crlf;
      term = 4;
    } else if (lflf != std::string::npos) {
      end = lflf;
      term = 2;
    } else if (head.size() > cap) {
      try {
        sock.send_all(net::http_response(431, "Request Header Fields Too "
                                              "Large",
                                         "text/plain",
                                         "request head too large\n"));
      } catch (...) {
      }
      return;
    }
  }
  obs::counter_add("server.http_requests");
  obs::Span span("server.http");
  std::string resp;
  try {
    auto req = net::parse_http_request(
        std::string_view(head).substr(0, end + term));
    if (stopping()) {
      obs::counter_add("server.errors");
      resp = net::http_response(503, "Service Unavailable", "text/plain",
                                "server is draining\n");
    } else {
      resp = route_http(req);
    }
  } catch (const Error& e) {
    obs::counter_add("server.errors");
    resp = net::http_response(400, "Bad Request", "text/plain",
                              std::string(e.what()) + "\n");
  }
  try {
    sock.send_all(resp);
  } catch (const Error&) {
  }
  sock.close();
}

std::string Server::route_http(const net::HttpRequest& req) {
  const bool is_head = req.method == "HEAD";
  if (req.method != "GET" && !is_head)
    return net::http_response(405, "Method Not Allowed", "text/plain",
                              "GET and HEAD only\n",
                              {{"Allow", "GET, HEAD"}});
  std::string resp;  // set directly by routes that build their own
  std::string body;
  std::string content_type = "application/json";
  try {
    auto segs = path_segments(req.path);
    if (req.path == "/healthz") {
      body = "ok\n";
      content_type = "text/plain";
    } else if (req.path == "/statsz") {
      body = obs::to_json(obs::snapshot(),
                          {{"endpoint", "statsz"},
                           {"dir", registry_.dir()}});
      body += '\n';
    } else if (req.path == "/archives") {
      body = "{\"archives\":[";
      bool first = true;
      for (const auto& name : registry_.list()) {
        if (!first) body += ',';
        first = false;
        body += json_quoted(name);
      }
      body += "]}\n";
    } else if (segs.size() == 3 && segs[0] == "archives" &&
               segs[2] == "datasets") {
      auto reader = registry_.open(segs[1]);
      body = store::archive_ls_json(segs[1], *reader);
      body += '\n';
    } else if (segs.size() == 5 && segs[0] == "archives" &&
               segs[2] == "datasets" && segs[4] == "query") {
      auto op = net::query_param(req.query, "op");
      if (!op)
        throw ParamError("serve: query requires ?op=chunks|agg|count|"
                         "preview");
      auto reader = registry_.open(segs[1]);
      find_dataset(*reader, segs[3]);
      query::Executor ex(*reader, segs[3]);
      query::RowRange range = ex.full_range();
      if (auto rows = net::query_param(req.query, "rows")) {
        auto [b, e] = parse_row_range(*rows);
        range = {b, e};
      }
      auto predicate = [&]() -> query::Predicate {
        auto where = net::query_param(req.query, "where");
        if (!where)
          throw ParamError("serve: query op=" + *op +
                           " requires ?where=CMP:THRESHOLD");
        return query::parse_predicate(*where);
      };
      if (*op == "chunks") {
        const auto p = predicate();
        body = query::chunks_json(ex, p, ex.find_chunks(p));
      } else if (*op == "agg") {
        body = query::aggregate_json(ex, range, ex.aggregate(range));
      } else if (*op == "count") {
        const auto p = predicate();
        body = query::count_json(ex, p, range, ex.count_where(p, range));
      } else if (*op == "preview") {
        std::uint64_t points = 64;
        if (auto pstr = net::query_param(req.query, "points")) {
          auto v = env::parse_u64(*pstr);
          if (!v || *v == 0)
            throw ParamError("serve: points must be a positive integer");
          points = *v;
        }
        body = query::preview_json(ex, range, ex.preview(points, range));
      } else {
        throw ParamError("serve: unknown query op: " + *op);
      }
      body += '\n';
    } else if (segs.size() == 5 && segs[0] == "archives" &&
               segs[2] == "datasets" && segs[4] == "rows") {
      auto range = net::query_param(req.query, "range");
      if (!range) throw ParamError("serve: rows requires ?range=BEGIN:END");
      auto [row_begin, row_end] = parse_row_range(*range);
      auto encoding =
          net::query_param(req.query, "encoding").value_or("base64");
      if (encoding != "base64" && encoding != "raw")
        throw ParamError("serve: encoding must be base64 or raw");
      auto dtype_name = [](DataType t) {
        return t == DataType::kFloat32 ? "f32" : "f64";
      };
      auto reader = registry_.open(segs[1]);
      if (encoding == "raw") {
        resp = rows_response(
            *reader, segs[3], row_begin, row_end, opts_.decode_threads,
            [&](DataType dtype, const Dims& dims, std::size_t nbytes) {
              std::string r = net::http_head(
                  200, "OK", "application/octet-stream", nbytes,
                  {{"X-Transpwr-Dtype", dtype_name(dtype)},
                   {"X-Transpwr-Dims", dims.to_string()}});
              r.resize(r.size() + nbytes);
              return r;
            });
      } else {
        DataType dtype{};
        Dims dims;
        auto bytes = rows_response(
            *reader, segs[3], row_begin, row_end, opts_.decode_threads,
            [&](DataType t, const Dims& d, std::size_t nbytes) {
              dtype = t;
              dims = d;
              return std::vector<std::uint8_t>(nbytes);
            });
        body = "{\"archive\":";
        body += json_quoted(segs[1]);
        body += ",\"dataset\":";
        body += json_quoted(segs[3]);
        body += ",\"rows\":[";
        body += std::to_string(row_begin);
        body += ',';
        body += std::to_string(row_end);
        body += "],\"dtype\":\"";
        body += dtype_name(dtype);
        body += "\",\"dims\":[";
        for (int i = 0; i < dims.nd; ++i) {
          if (i) body += ',';
          body += std::to_string(dims[i]);
        }
        body += "],\"encoding\":\"base64\",\"data\":\"";
        body += net::base64_encode(bytes);
        body += "\"}\n";
      }
    } else {
      throw NotFoundError("serve: no route for " + req.path);
    }
  } catch (const NotFoundError& e) {
    obs::counter_add("server.errors");
    return net::http_response(404, "Not Found", "text/plain",
                              std::string(e.what()) + "\n");
  } catch (const ParamError& e) {
    obs::counter_add("server.errors");
    return net::http_response(400, "Bad Request", "text/plain",
                              std::string(e.what()) + "\n");
  } catch (const StreamError& e) {
    obs::counter_add("server.errors");
    return net::http_response(502, "Bad Gateway", "text/plain",
                              std::string(e.what()) + "\n");
  } catch (const std::exception& e) {
    obs::counter_add("server.errors");
    return net::http_response(500, "Internal Server Error", "text/plain",
                              std::string(e.what()) + "\n");
  }
  if (resp.empty()) resp = net::http_response(200, "OK", content_type, body);
  if (is_head) {
    // Same head (Content-Length included, per RFC 7231) with no body.
    std::size_t blank = resp.find("\r\n\r\n");
    resp.resize(blank + 4);
  }
  return resp;
}

}  // namespace server
}  // namespace transpwr
