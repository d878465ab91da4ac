#include "lossless/blocked_huffman.h"

#include <algorithm>
#include <cstring>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "common/parallel.h"
#include "lossless/huffman.h"
#include "obs/obs.h"

namespace transpwr {
namespace lossless {
namespace {

constexpr std::uint32_t kMagic = 0x32484253;  // "SBH2"

std::size_t block_count_for(std::size_t count, std::size_t block) {
  return count == 0 ? 0 : (count - 1) / block + 1;
}

}  // namespace

std::vector<std::uint8_t> blocked_encode(std::span<const std::uint32_t> symbols,
                                         std::uint32_t alphabet,
                                         std::size_t threads) {
  const std::size_t block = kEntropyBlockSymbols;
  const std::size_t nblocks = block_count_for(symbols.size(), block);

  HuffmanCoder huff;
  std::vector<std::uint8_t> table;
  {
    obs::Span hist_span("histogram");
    huff.build_from(symbols, alphabet, threads);
    BitWriter table_bw;
    huff.write_table(table_bw);
    table = table_bw.take();
  }
  obs::counter_add("entropy.table_builds");

  ByteWriter out;
  {
    obs::Span enc_span("encode");
    std::vector<std::vector<std::uint8_t>> subs(nblocks);
    ParallelOptions opts;
    opts.max_threads = threads;
    opts.grain = 1;
    parallel_for(
        nblocks,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t b = begin; b < end; ++b) {
            BitWriter bw;
            huff.encode_all(
                symbols.subspan(b * block,
                                std::min(block, symbols.size() - b * block)),
                bw);
            subs[b] = bw.take();
          }
        },
        opts);

    out.put(kMagic);
    out.put(static_cast<std::uint64_t>(symbols.size()));
    out.put(alphabet);
    out.put(static_cast<std::uint32_t>(block));
    out.put(static_cast<std::uint32_t>(nblocks));
    out.put_sized(table);
    for (const auto& s : subs) out.put(static_cast<std::uint64_t>(s.size()));
    for (const auto& s : subs) out.put_bytes(s);
  }
  return out.take();
}

std::vector<std::uint32_t> blocked_decode(std::span<const std::uint8_t> stream,
                                          std::size_t threads) {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw StreamError("blocked_huffman: bad magic");
  const auto count = static_cast<std::size_t>(in.get<std::uint64_t>());
  check_decode_alloc(count, sizeof(std::uint32_t), "blocked_huffman");
  const std::uint32_t alphabet = in.get<std::uint32_t>();
  const std::uint32_t block = in.get<std::uint32_t>();
  const std::uint32_t nblocks = in.get<std::uint32_t>();
  if (block == 0) throw StreamError("blocked_huffman: zero block size");
  if (nblocks != block_count_for(count, block))
    throw StreamError("blocked_huffman: block count does not match directory");

  auto table_bytes = in.get_sized();
  BitReader table_br(table_bytes);
  HuffmanCoder huff;
  huff.read_table(table_br);
  if (huff.alphabet_size() != alphabet)
    throw StreamError("blocked_huffman: table alphabet mismatch");

  // Directory: per-block substream byte sizes. Every entry is re-checked
  // against the bytes actually present before any block allocation, so a
  // corrupt directory cannot point substreams past the payload.
  std::vector<std::size_t> offsets(std::size_t{nblocks} + 1, 0);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const auto sz = in.get<std::uint64_t>();
    if (sz > stream.size())
      throw StreamError("blocked_huffman: substream size exceeds stream");
    offsets[b + 1] = offsets[b] + static_cast<std::size_t>(sz);
    if (offsets[b + 1] < offsets[b])
      throw StreamError("blocked_huffman: substream directory overflows");
  }
  if (offsets[nblocks] > in.remaining())
    throw StreamError("blocked_huffman: truncated substreams");
  auto payload = in.get_bytes(offsets[nblocks]);

  std::vector<std::uint32_t> out(count);
  ParallelOptions opts;
  opts.max_threads = threads;
  opts.grain = 1;
  parallel_for(
      nblocks,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          BitReader br(payload.subspan(offsets[b], offsets[b + 1] - offsets[b]));
          const std::size_t first = b * std::size_t{block};
          huff.decode_all(
              br, std::span<std::uint32_t>(out).subspan(
                      first, std::min<std::size_t>(block, count - first)));
        }
      },
      opts);
  return out;
}

}  // namespace lossless
}  // namespace transpwr
