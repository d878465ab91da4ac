#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/error.h"

namespace transpwr {
namespace obs {
namespace {

struct SpanNode {
  std::atomic<std::uint64_t> nanos{0};
  std::atomic<std::uint64_t> count{0};
};

struct CounterNode {
  std::atomic<std::uint64_t> value{0};
};

struct GaugeNode {
  std::atomic<std::uint64_t> bits{0};  // bit-cast double
};

/// One mutex guards all three name tables. Nodes are heap-allocated and
/// never deallocated while the process lives, so per-thread caches may
/// keep raw pointers and skip the lock after first sight of a name;
/// reset() zeroes values in place for the same reason.
struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, std::unique_ptr<SpanNode>> spans;
  std::unordered_map<std::string, std::unique_ptr<CounterNode>> counters;
  std::unordered_map<std::string, std::unique_ptr<GaugeNode>> gauges;
};

Registry& registry() {
  static Registry* r = new Registry;  // never destroyed: worker threads may
  return *r;                          // outlive static destruction order
}

std::atomic<bool> g_enabled{false};

thread_local Span* tl_current_span = nullptr;
thread_local std::unordered_map<std::string, SpanNode*> tl_span_cache;
thread_local std::unordered_map<std::string, CounterNode*> tl_counter_cache;

template <typename Node, typename Map>
Node* find_or_create(Map& map, const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = map[name];
  if (!slot) slot = std::make_unique<Node>();
  return slot.get();
}

SpanNode* span_node(const std::string& path) {
  auto it = tl_span_cache.find(path);
  if (it != tl_span_cache.end()) return it->second;
  SpanNode* node = find_or_create<SpanNode>(registry().spans, path);
  tl_span_cache.emplace(path, node);
  return node;
}

CounterNode* counter_node(const std::string& name) {
  auto it = tl_counter_cache.find(name);
  if (it != tl_counter_cache.end()) return it->second;
  CounterNode* node = find_or_create<CounterNode>(registry().counters, name);
  tl_counter_cache.emplace(name, node);
  return node;
}

void json_escape(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

void json_append_escaped(std::string& out, std::string_view s) {
  json_escape(out, s);
}

void json_append_double(std::string& out, double v) {
  append_double(out, v);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

ScopedRecording::ScopedRecording(bool on) : prev_(enabled()) {
  set_enabled(on);
}

ScopedRecording::~ScopedRecording() { set_enabled(prev_); }

void counter_add(std::string_view name, std::uint64_t delta) {
  if (!enabled()) return;
  counter_node(std::string(name))
      ->value.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t counter_value(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(std::string(name));
  return it == r.counters.end()
             ? 0
             : it->second->value.load(std::memory_order_relaxed);
}

void gauge_set(std::string_view name, double value) {
  if (!enabled()) return;
  GaugeNode* node = find_or_create<GaugeNode>(registry().gauges,
                                              std::string(name));
  node->bits.store(std::bit_cast<std::uint64_t>(value),
                   std::memory_order_relaxed);
}

Span::Span(std::string_view name) : recording_(enabled()) {
  if (recording_) {
    parent_ = tl_current_span;
    if (parent_) {
      path_.reserve(parent_->path_.size() + 1 + name.size());
      path_ = parent_->path_;
      path_ += '/';
      path_ += name;
    } else {
      path_ = name;
    }
    tl_current_span = this;
  }
  // The clock is read unconditionally so seconds() is meaningful even on a
  // span that does not record (callers use it for throttling).
  start_ = clock::now();
}

double Span::seconds() const {
  return std::chrono::duration<double>(clock::now() - start_).count();
}

Span::~Span() {
  if (!recording_) return;
  auto dur = clock::now() - start_;
  SpanNode* node = span_node(path_);
  node->nanos.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dur).count()),
      std::memory_order_relaxed);
  node->count.fetch_add(1, std::memory_order_relaxed);
  tl_current_span = parent_;
}

Snapshot snapshot() {
  Snapshot snap;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& [path, node] : r.spans) {
    SpanStat stat;
    stat.seconds =
        static_cast<double>(node->nanos.load(std::memory_order_relaxed)) *
        1e-9;
    stat.count = node->count.load(std::memory_order_relaxed);
    if (stat.count) snap.spans.emplace_back(path, stat);
  }
  for (const auto& [name, node] : r.counters)
    snap.counters.emplace_back(name,
                               node->value.load(std::memory_order_relaxed));
  for (const auto& [name, node] : r.gauges)
    snap.gauges.emplace_back(
        name,
        std::bit_cast<double>(node->bits.load(std::memory_order_relaxed)));
  auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.spans.begin(), snap.spans.end(), by_key);
  std::sort(snap.counters.begin(), snap.counters.end(), by_key);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_key);
  return snap;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [path, node] : r.spans) {
    node->nanos.store(0, std::memory_order_relaxed);
    node->count.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, node] : r.counters)
    node->value.store(0, std::memory_order_relaxed);
  for (auto& [name, node] : r.gauges)
    node->bits.store(std::bit_cast<std::uint64_t>(0.0),
                     std::memory_order_relaxed);
}

std::string to_json(
    const Snapshot& snap,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  std::string out;
  out += "{\n  \"schema\": \"transpwr-stats-v1\",\n  \"meta\": {";
  auto sorted_meta = meta;
  std::sort(sorted_meta.begin(), sorted_meta.end());
  for (std::size_t i = 0; i < sorted_meta.size(); ++i) {
    out += i ? ", \"" : "\"";
    json_escape(out, sorted_meta[i].first);
    out += "\": \"";
    json_escape(out, sorted_meta[i].second);
    out += '"';
  }
  out += "},\n  \"spans\": {";
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    out += i ? ",\n    \"" : "\n    \"";
    json_escape(out, snap.spans[i].first);
    out += "\": {\"seconds\": ";
    append_double(out, snap.spans[i].second.seconds);
    out += ", \"count\": ";
    out += std::to_string(snap.spans[i].second.count);
    out += '}';
  }
  out += snap.spans.empty() ? "},\n" : "\n  },\n";
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i ? ",\n    \"" : "\n    \"";
    json_escape(out, snap.counters[i].first);
    out += "\": ";
    out += std::to_string(snap.counters[i].second);
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    out += i ? ",\n    \"" : "\n    \"";
    json_escape(out, snap.gauges[i].first);
    out += "\": ";
    append_double(out, snap.gauges[i].second);
  }
  out += snap.gauges.empty() ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

void write_stats_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  std::string text = to_json(snapshot(), meta);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw ParamError("obs: cannot open stats file " + path);
  std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  bool ok = written == text.size() && std::fclose(f) == 0;
  if (!ok) throw ParamError("obs: failed to write stats file " + path);
}

void print_stats(std::FILE* out) {
  Snapshot snap = snapshot();
  if (!snap.spans.empty()) std::fprintf(out, "spans:\n");
  for (const auto& [path, stat] : snap.spans) {
    int depth = static_cast<int>(std::count(path.begin(), path.end(), '/'));
    std::size_t leaf = path.rfind('/');
    std::fprintf(out, "  %*s%-*s %10.6f s  x%llu\n", 2 * depth, "",
                 std::max(1, 44 - 2 * depth),
                 leaf == std::string::npos ? path.c_str()
                                          : path.c_str() + leaf + 1,
                 stat.seconds, static_cast<unsigned long long>(stat.count));
  }
  if (!snap.counters.empty()) std::fprintf(out, "counters:\n");
  for (const auto& [name, value] : snap.counters)
    std::fprintf(out, "  %-46s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  if (!snap.gauges.empty()) std::fprintf(out, "gauges:\n");
  for (const auto& [name, value] : snap.gauges)
    std::fprintf(out, "  %-46s %g\n", name.c_str(), value);
}

// --- minimal strict JSON validator -------------------------------------------

namespace {

struct JsonCursor {
  const char* p;
  const char* end;
  int depth = 0;

  bool eof() const { return p == end; }
  void skip_ws() {
    while (p != end &&
           (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }
  bool consume(char c) {
    if (p != end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool literal(const char* s) {
    const char* q = p;
    while (*s) {
      if (q == end || *q != *s) return false;
      ++q;
      ++s;
    }
    p = q;
    return true;
  }

  bool value();

  bool string() {
    if (!consume('"')) return false;
    while (p != end) {
      unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"') {
        ++p;
        return true;
      }
      if (c < 0x20) return false;
      if (c == '\\') {
        ++p;
        if (p == end) return false;
        char e = *p;
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p;
            if (p == end || !std::isxdigit(static_cast<unsigned char>(*p)))
              return false;
          }
        } else if (!std::strchr("\"\\/bfnrt", e)) {
          return false;
        }
      }
      ++p;
    }
    return false;
  }

  bool number() {
    const char* q = p;
    if (q != end && *q == '-') ++q;
    if (q == end || !std::isdigit(static_cast<unsigned char>(*q)))
      return false;
    if (*q == '0') {
      ++q;
    } else {
      while (q != end && std::isdigit(static_cast<unsigned char>(*q))) ++q;
    }
    if (q != end && *q == '.') {
      ++q;
      if (q == end || !std::isdigit(static_cast<unsigned char>(*q)))
        return false;
      while (q != end && std::isdigit(static_cast<unsigned char>(*q))) ++q;
    }
    if (q != end && (*q == 'e' || *q == 'E')) {
      ++q;
      if (q != end && (*q == '+' || *q == '-')) ++q;
      if (q == end || !std::isdigit(static_cast<unsigned char>(*q)))
        return false;
      while (q != end && std::isdigit(static_cast<unsigned char>(*q))) ++q;
    }
    p = q;
    return true;
  }

  bool object() {
    if (++depth > 64) return false;
    skip_ws();
    if (consume('}')) {
      --depth;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!consume(':')) return false;
      if (!value()) return false;
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) {
        --depth;
        return true;
      }
      return false;
    }
  }

  bool array() {
    if (++depth > 64) return false;
    skip_ws();
    if (consume(']')) {
      --depth;
      return true;
    }
    for (;;) {
      if (!value()) return false;
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) {
        --depth;
        return true;
      }
      return false;
    }
  }
};

bool JsonCursor::value() {
  skip_ws();
  if (eof()) return false;
  switch (*p) {
    case '{':
      ++p;
      return object();
    case '[':
      ++p;
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
  }
}

}  // namespace

bool json_valid(std::string_view text) {
  JsonCursor c{text.data(), text.data() + text.size()};
  if (!c.value()) return false;
  c.skip_ws();
  return c.eof();
}

}  // namespace obs
}  // namespace transpwr
