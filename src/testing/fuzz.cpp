#include "testing/fuzz.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <typeinfo>

#include "common/bitstream.h"
#include "common/checksum.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "core/compressor.h"
#include "lossless/blocked_huffman.h"
#include "lossless/lossless.h"
#include "lossless/lz77.h"
#include "lossless/rle.h"
#include "net/http.h"
#include "net/protocol.h"
#include "query/query.h"
#include "server/server.h"
#include "store/archive.h"
#include "store/chunk_cache.h"
#include "testing/generators.h"
#include "testing/temp_file.h"

namespace transpwr {
namespace testing {
namespace {

/// Small deterministic fields the scheme corpora are built from.
template <typename T>
std::vector<std::vector<std::uint8_t>> scheme_corpus(Scheme scheme,
                                                     std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> corpus;
  auto comp = make_compressor(scheme);
  CompressorParams params;
  params.bound = 1e-2;

  struct Spec {
    Family family;
    int nd;
    std::size_t d0, d1;
  };
  static constexpr Spec kSpecs[] = {
      {Family::kRandomSmooth, 1, 96, 0},
      {Family::kSparseZeros, 2, 12, 8},
      {Family::kSignAlternating, 1, 33, 0},
  };
  for (const auto& s : kSpecs) {
    Dims dims;
    dims.nd = s.nd;
    dims.d[0] = s.d0;
    if (s.nd == 2) dims.d[1] = s.d1;
    auto data = make_field<T>(s.family, dims.count(), seed);
    corpus.push_back(comp->compress(data, dims, params));
  }
  return corpus;
}

std::vector<std::uint8_t> bytes_corpus(std::uint64_t seed, std::size_t n,
                                       bool compressible) {
  Rng rng(seed);
  std::vector<std::uint8_t> raw(n);
  for (auto& b : raw)
    b = compressible ? static_cast<std::uint8_t>(rng.below(4))
                     : static_cast<std::uint8_t>(rng.next());
  return raw;
}

}  // namespace

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << "fuzz: " << targets_run << " targets, " << decodes << " decodes ("
     << clean_errors << " clean errors, " << clean_decodes
     << " clean decodes), " << findings.size() << " findings\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(findings.size(), 10);
       ++i)
    os << "  [" << findings[i].target << " iter " << findings[i].iter
       << "] " << findings[i].what << "\n";
  return os.str();
}

std::vector<FuzzTarget> default_fuzz_targets(std::uint64_t seed) {
  std::vector<FuzzTarget> targets;

  for (Scheme scheme : all_schemes()) {
    {
      FuzzTarget t;
      t.name = std::string(scheme_name(scheme)) + "_f32";
      t.corpus = scheme_corpus<float>(scheme, seed);
      t.decode = [scheme](std::span<const std::uint8_t> s) {
        make_compressor(scheme)->decompress_f32(s);
      };
      targets.push_back(std::move(t));
    }
    {
      FuzzTarget t;
      t.name = std::string(scheme_name(scheme)) + "_f64";
      t.corpus = scheme_corpus<double>(scheme, seed + 1);
      t.decode = [scheme](std::span<const std::uint8_t> s) {
        make_compressor(scheme)->decompress_f64(s);
      };
      targets.push_back(std::move(t));
    }
  }

  {
    FuzzTarget t;
    t.name = "lossless";
    // The 80 KiB compressible entry crosses the blocked-container
    // threshold, so the v2 (method 2) framing gets mutated too.
    t.corpus = {lossless::compress(bytes_corpus(seed, 512, true)),
                lossless::compress(bytes_corpus(seed + 1, 300, false)),
                lossless::compress(bytes_corpus(seed + 5, 80 * 1024, true))};
    t.decode = [](std::span<const std::uint8_t> s) {
      lossless::decompress(s);
    };
    targets.push_back(std::move(t));
  }
  {
    FuzzTarget t;
    t.name = "blocked_huffman";
    Rng rng(seed + 6);
    std::vector<std::uint32_t> small(700);
    for (auto& c : small) c = static_cast<std::uint32_t>(rng.below(9));
    std::vector<std::uint32_t> multi(300000);
    for (auto& c : multi) c = static_cast<std::uint32_t>(rng.below(1000));
    t.corpus = {lossless::blocked_encode(small, 16),
                lossless::blocked_encode(multi, 1024),
                lossless::blocked_encode({}, 4)};
    t.decode = [](std::span<const std::uint8_t> s) {
      lossless::blocked_decode(s);
    };
    targets.push_back(std::move(t));
  }
  {
    FuzzTarget t;
    t.name = "lz77";
    t.corpus = {lz77::compress(bytes_corpus(seed + 2, 512, true)),
                lz77::compress(bytes_corpus(seed + 3, 100, false))};
    t.decode = [](std::span<const std::uint8_t> s) { lz77::decompress(s); };
    targets.push_back(std::move(t));
  }
  {
    FuzzTarget t;
    t.name = "rle";
    Bitmap bits;
    bits.assign(777, false);
    Rng rng(seed + 4);
    for (std::size_t i = 0; i < bits.size(); ++i)
      if (rng.below(5) == 0) bits.set(i);
    BitWriter bw;
    rle::encode_bits(bits, bw);
    t.corpus = {bw.take()};
    t.decode = [](std::span<const std::uint8_t> s) {
      BitReader br(s);
      rle::decode_bits(br);
    };
    targets.push_back(std::move(t));
  }
  {
    FuzzTarget t;
    t.name = "archive";
    // Two tiny in-memory archives: a multi-dataset one (exercises the
    // directory walk) and a multi-chunk one (exercises the extent tiling).
    std::vector<std::uint8_t> multi_ds;
    {
      store::ArchiveWriter w(&multi_ds);
      store::DatasetOptions opts;
      opts.scheme = Scheme::kSzAbs;
      opts.params.bound = 1e-2;
      opts.threads = 1;
      Dims dims;
      dims.nd = 1;
      dims.d[0] = 48;
      auto a = make_field<float>(Family::kRandomSmooth, dims.count(), seed);
      auto b = make_field<double>(Family::kSparseZeros, dims.count(),
                                  seed + 7);
      w.add_dataset<float>("a", a, dims, opts);
      w.add_dataset<double>("b", b, dims, opts);
      w.finish();
    }
    std::vector<std::uint8_t> multi_chunk;
    {
      store::ArchiveWriter w(&multi_chunk);
      store::DatasetOptions opts;
      opts.scheme = Scheme::kSzAbs;
      opts.params.bound = 1e-2;
      opts.rows_per_chunk = 9;
      opts.threads = 1;
      Dims dims;
      dims.nd = 2;
      dims.d[0] = 24;
      dims.d[1] = 8;
      auto data =
          make_field<float>(Family::kSignAlternating, dims.count(), seed);
      w.add_dataset<float>("field", data, dims, opts);
      w.finish();
    }
    t.corpus = {std::move(multi_ds), std::move(multi_chunk)};
    t.decode = [](std::span<const std::uint8_t> s) {
      auto replay = [](store::ArchiveReader& reader) {
        reader.verify();
        for (const auto& ds : reader.datasets()) {
          if (ds.dtype == DataType::kFloat32)
            reader.load<float>(ds.name, nullptr, 1);
          else
            reader.load<double>(ds.name, nullptr, 1);
        }
      };
      // Differential check: the mmap-backed file reader and the in-memory
      // view reader parse identical bytes, so they must agree on
      // accept/reject for every mutant. The shared chunk cache is pinned
      // off — scratch files recycle inodes and mtimes faster than the
      // archive-identity key can tell apart.
      store::ScopedCacheCapacity no_cache(0);
      bool file_ok = false;
      {
        TempFile tmp(s);
        try {
          store::ArchiveReader reader(tmp.path());
          replay(reader);
          file_ok = true;
        } catch (const Error&) {
        }
      }
      bool mem_ok = false;
      std::exception_ptr mem_err;
      try {
        store::ArchiveReader reader(s);
        replay(reader);
        mem_ok = true;
      } catch (const Error&) {
        mem_err = std::current_exception();
      }
      if (file_ok != mem_ok)
        throw std::logic_error(
            "archive fuzz: mmap and memory readers disagree on a stream");
      if (mem_err) std::rethrow_exception(mem_err);
    };
    targets.push_back(std::move(t));
  }
  {
    FuzzTarget t;
    t.name = "query";
    // Corpus: summarized v2 archives — one single-chunk with non-finite
    // values (exercises the inf/nan tallies in every summary decision)
    // and one multi-chunk (exercises pruning and block indexing). Mutants
    // hit the summary section as often as the chunk payloads, so the
    // query planner sees corrupted summaries behind both valid and
    // invalid footer checksums.
    std::vector<std::uint8_t> nonfinite;
    {
      store::ArchiveWriter w(&nonfinite);
      store::DatasetOptions opts;
      opts.scheme = Scheme::kSzAbs;
      opts.params.bound = 1e-2;
      opts.threads = 1;
      Dims dims;
      dims.nd = 1;
      dims.d[0] = 40;
      auto data = make_field<double>(Family::kRandomSmooth, dims.count(),
                                     seed + 9);
      data[3] = std::numeric_limits<double>::quiet_NaN();
      data[17] = std::numeric_limits<double>::infinity();
      data[29] = -std::numeric_limits<double>::infinity();
      w.add_dataset<double>("nf", data, dims, opts);
      w.finish();
    }
    std::vector<std::uint8_t> multi_chunk;
    {
      store::ArchiveWriter w(&multi_chunk);
      store::DatasetOptions opts;
      opts.scheme = Scheme::kSzAbs;
      opts.params.bound = 1e-2;
      opts.rows_per_chunk = 7;
      opts.threads = 1;
      Dims dims;
      dims.nd = 2;
      dims.d[0] = 30;
      dims.d[1] = 6;
      auto data =
          make_field<float>(Family::kSignAlternating, dims.count(), seed);
      w.add_dataset<float>("field", data, dims, opts);
      w.finish();
    }
    t.corpus = {std::move(nonfinite), std::move(multi_chunk)};
    t.decode = [](std::span<const std::uint8_t> s) {
      store::ScopedCacheCapacity no_cache(0);
      store::ArchiveReader reader(s);
      query::Predicate p;
      p.cmp = query::Cmp::kGe;
      p.threshold = 0.0;
      for (const auto& ds : reader.datasets()) {
        query::Executor ex(reader, ds.name);
        ex.find_chunks(p);
        ex.aggregate(ex.full_range());
        ex.count_where(p, ex.full_range());
        ex.preview(8, ex.full_range());
      }
    };
    targets.push_back(std::move(t));
  }
  {
    FuzzTarget t;
    t.name = "net_frame";
    // Corpus: one well-formed TPRQ1 frame per interesting shape (simple
    // op, string-carrying requests under each body checksum, a query,
    // error response) plus an HTTP request head, so mutants exercise
    // every parser the server feeds with attacker-controlled bytes.
    std::vector<std::vector<std::uint8_t>> corpus;
    corpus.push_back(net::encode_frame(net::Op::kPing, 0, 1,
                                       bytes_corpus(seed + 8, 16, false)));
    net::Request req(net::Op::kReadRows, "snapshots.tpar", "vx");
    req.row_end = 128;
    const auto rows_body = net::encode_request(req);
    corpus.push_back(net::encode_frame(req.op, 0, 7, rows_body));
    corpus.push_back(
        net::encode_frame(req.op, net::kFlagCrc32c, 8, rows_body));
    req.op = net::Op::kQuery;
    req.kind = net::QueryKind::kCount;
    req.predicate = {query::Cmp::kGe, 1.5};
    corpus.push_back(net::encode_frame(req.op, net::kFlagCrc32c, 11,
                                       net::encode_request(req)));
    corpus.push_back(net::encode_frame(
        net::Op::kStat, net::kFlagCrc32c, 10,
        net::encode_request(net::Request(net::Op::kStat, "snapshots.tpar"))));
    corpus.push_back(net::encode_error(
        static_cast<std::uint16_t>(net::Op::kLoad), 9,
        net::ErrCode::kNotFound, "serve: no such dataset: vx"));
    {
      static constexpr char kHttp[] =
          "GET /archives/a.tpar/datasets/f/rows?range=0:8&encoding=raw "
          "HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
      corpus.emplace_back(
          reinterpret_cast<const std::uint8_t*>(kHttp),
          reinterpret_cast<const std::uint8_t*>(kHttp) + sizeof kHttp - 1);
    }
    t.corpus = std::move(corpus);
    t.decode = [](std::span<const std::uint8_t> s) {
      // Every mutant goes through both wire parsers and, when it parses,
      // on to the request parser behind it: clean accept or a typed
      // Error, never a crash, hang, or unguarded allocation. The frame
      // cap mirrors the server's TRANSPWR_SERVE_MAX_FRAME guard.
      try {
        net::Frame f = net::parse_frame(s, 1u << 20);
        if (f.is_error()) {
          net::ErrCode code{};
          std::string message;
          net::parse_error_body(f.body(), &code, &message);
        } else {
          net::decode_request(f.op, f.body());
        }
      } catch (const Error&) {
      }
      server::parse_http_route(net::parse_http_request(std::string_view(
          reinterpret_cast<const char*>(s.data()), s.size())));
    };
    targets.push_back(std::move(t));
  }
  return targets;
}

std::vector<std::uint8_t> mutate_stream(std::span<const std::uint8_t> base,
                                        Rng& rng) {
  // An empty base mutates as a single zero byte. Built in one step: a
  // push_back onto the empty copy trips GCC's -Wfree-nonheap-object.
  std::vector<std::uint8_t> s =
      base.empty() ? std::vector<std::uint8_t>(1, 0)
                   : std::vector<std::uint8_t>(base.begin(), base.end());

  switch (rng.below(8)) {
    case 0:  // truncate
      s.resize(rng.below(s.size() + 1));
      break;
    case 1: {  // flip 1..8 random bits
      std::size_t flips = 1 + rng.below(8);
      for (std::size_t i = 0; i < flips; ++i)
        s[rng.below(s.size())] ^= static_cast<std::uint8_t>(
            1u << rng.below(8));
      break;
    }
    case 2: {  // overwrite 1..16 random bytes
      std::size_t writes = 1 + rng.below(16);
      for (std::size_t i = 0; i < writes; ++i)
        s[rng.below(s.size())] = static_cast<std::uint8_t>(rng.next());
      break;
    }
    case 3: {  // header-biased: corrupt the first ~64 bytes
      std::size_t span = std::min<std::size_t>(s.size(), 64);
      std::size_t writes = 1 + rng.below(8);
      for (std::size_t i = 0; i < writes; ++i)
        s[rng.below(span)] = static_cast<std::uint8_t>(rng.next());
      break;
    }
    case 4: {  // length-field attack: plant a huge u64 at a random offset
      if (s.size() >= 8) {
        std::uint64_t huge = ~std::uint64_t{0} >> rng.below(16);
        std::size_t off = rng.below(s.size() - 7);
        std::memcpy(s.data() + off, &huge, 8);
      }
      break;
    }
    case 5: {  // splice: append a copy of the head (duplicated sections)
      std::size_t cut = rng.below(s.size());
      std::vector<std::uint8_t> head(s.begin(),
                                     s.begin() + static_cast<std::ptrdiff_t>(cut));
      s.insert(s.end(), head.begin(), head.end());
      break;
    }
    case 6: {  // append random tail
      std::size_t extra = 1 + rng.below(64);
      for (std::size_t i = 0; i < extra; ++i)
        s.push_back(static_cast<std::uint8_t>(rng.next()));
      break;
    }
    default: {  // fully random short stream
      s.resize(1 + rng.below(96));
      for (auto& b : s) b = static_cast<std::uint8_t>(rng.next());
      break;
    }
  }
  return s;
}

FuzzReport run_fuzz(const FuzzConfig& config) {
  FuzzReport report;
  // Cap decoder allocations so plausible-looking huge headers fail fast
  // instead of timing the run out; restored on exit.
  ScopedDecodeLimit limit(config.max_decode_bytes);

  auto targets = default_fuzz_targets(config.seed);
  for (auto& target : targets) {
    if (!config.targets.empty() &&
        std::find(config.targets.begin(), config.targets.end(),
                  target.name) == config.targets.end())
      continue;
    report.targets_run++;
    Rng rng(config.seed ^ fnv1a64({reinterpret_cast<const std::uint8_t*>(
                                       target.name.data()),
                                   target.name.size()}));
    for (std::size_t iter = 0; iter < config.iters_per_target; ++iter) {
      const auto& base = target.corpus[rng.below(target.corpus.size())];
      auto mutated = mutate_stream(base, rng);
      report.decodes++;
      try {
        target.decode(mutated);
        report.clean_decodes++;
      } catch (const Error&) {
        report.clean_errors++;
      } catch (const std::bad_alloc&) {
        report.findings.push_back(
            {target.name, "std::bad_alloc escaped the decode guard", iter,
             std::move(mutated)});
      } catch (const std::exception& e) {
        report.findings.push_back(
            {target.name,
             std::string(typeid(e).name()) + ": " + e.what(), iter,
             std::move(mutated)});
      } catch (...) {
        report.findings.push_back(
            {target.name, "non-standard exception", iter,
             std::move(mutated)});
      }
    }
  }
  return report;
}

}  // namespace testing
}  // namespace transpwr
