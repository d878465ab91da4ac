#include "zfp/zfp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "common/numeric.h"
#include "obs/obs.h"

namespace transpwr {
namespace zfp {
namespace {

constexpr std::uint32_t kMagic = 0x31504654;  // "TFP1"
constexpr int kEmaxBits = 12;                 // biased block exponent width
constexpr int kEmaxBias = 2048;
// The header's f64 rate slot is reserved: the writer always puts 8.0 there
// and the decoder ignores it.
constexpr double kReservedRate = 8.0;
template <typename T>
struct Traits;
template <>
struct Traits<float> {
  using Int = std::int32_t;
  using UInt = std::uint32_t;
  static constexpr int intprec = 32;
  static constexpr UInt nbmask = 0xaaaaaaaaU;
};
template <>
struct Traits<double> {
  using Int = std::int64_t;
  using UInt = std::uint64_t;
  static constexpr int intprec = 64;
  static constexpr UInt nbmask = 0xaaaaaaaaaaaaaaaaULL;
};

// Extra bit planes kept beyond the tolerance exponent to absorb transform
// rounding; 2*(d+1) is the ZFP heuristic, +1 for clean-room safety margin.
int precision_slack(int nd) { return 2 * (nd + 1) + 1; }

// --- lifted transform (ZFP's non-orthogonal 4-point lift) -----------------

template <typename Int>
void fwd_lift(Int* p, std::size_t s) {
  Int x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

template <typename Int>
void inv_lift(Int* p, std::size_t s) {
  // A corrupt stream can hand the inverse transform arbitrary
  // coefficients, so the additive steps run in the unsigned domain where
  // overflow wraps instead of being undefined. Valid streams keep
  // coefficients within intprec-2 bits (see fwd_cast), where wrapping and
  // signed arithmetic agree bit-for-bit.
  using U = std::make_unsigned_t<Int>;
  auto add = [](Int a, Int b) {
    return static_cast<Int>(static_cast<U>(a) + static_cast<U>(b));
  };
  auto sub = [](Int a, Int b) {
    return static_cast<Int>(static_cast<U>(a) - static_cast<U>(b));
  };
  auto shl1 = [](Int a) {
    return static_cast<Int>(static_cast<U>(a) << 1);
  };
  Int x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y = add(y, w >> 1); w = sub(w, y >> 1);
  y = add(y, w); w = shl1(w); w = sub(w, y);
  z = add(z, x); x = shl1(x); x = sub(x, z);
  y = add(y, z); z = shl1(z); z = sub(z, y);
  w = add(w, x); x = shl1(x); x = sub(x, w);
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

template <typename Int>
void fwd_xform(Int* b, int nd) {
  switch (nd) {
    case 1:
      fwd_lift(b, 1);
      break;
    case 2:
      for (int y = 0; y < 4; ++y) fwd_lift(b + 4 * y, 1);
      for (int x = 0; x < 4; ++x) fwd_lift(b + x, 4);
      break;
    default:
      for (int z = 0; z < 4; ++z)
        for (int y = 0; y < 4; ++y) fwd_lift(b + 16 * z + 4 * y, 1);
      for (int z = 0; z < 4; ++z)
        for (int x = 0; x < 4; ++x) fwd_lift(b + 16 * z + x, 4);
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) fwd_lift(b + 4 * y + x, 16);
      break;
  }
}

template <typename Int>
void inv_xform(Int* b, int nd) {
  switch (nd) {
    case 1:
      inv_lift(b, 1);
      break;
    case 2:
      for (int x = 0; x < 4; ++x) inv_lift(b + x, 4);
      for (int y = 0; y < 4; ++y) inv_lift(b + 4 * y, 1);
      break;
    default:
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) inv_lift(b + 4 * y + x, 16);
      for (int z = 0; z < 4; ++z)
        for (int x = 0; x < 4; ++x) inv_lift(b + 16 * z + x, 4);
      for (int z = 0; z < 4; ++z)
        for (int y = 0; y < 4; ++y) inv_lift(b + 16 * z + 4 * y, 1);
      break;
  }
}

// --- total-sequency coefficient ordering -----------------------------------

struct PermTables {
  std::array<std::uint8_t, 4> p1;
  std::array<std::uint8_t, 16> p2;
  std::array<std::uint8_t, 64> p3;
  PermTables() {
    auto make = [](auto& perm, int nd) {
      std::vector<int> idx(perm.size());
      std::iota(idx.begin(), idx.end(), 0);
      auto degree = [nd](int i) {
        int d = 0;
        for (int k = 0; k < nd; ++k) {
          d += i & 3;
          i >>= 2;
        }
        return d;
      };
      std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
        return degree(a) < degree(b);
      });
      for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<std::uint8_t>(idx[i]);
    };
    make(p1, 1);
    make(p2, 2);
    make(p3, 3);
  }
  const std::uint8_t* get(int nd) const {
    return nd == 1 ? p1.data() : nd == 2 ? p2.data() : p3.data();
  }
};

const std::uint8_t* perm(int nd) {
  static const PermTables t;
  return t.get(nd);
}

// --- negabinary ------------------------------------------------------------

template <typename T>
typename Traits<T>::UInt int2uint(typename Traits<T>::Int x) {
  using UInt = typename Traits<T>::UInt;
  return (static_cast<UInt>(x) + Traits<T>::nbmask) ^ Traits<T>::nbmask;
}

template <typename T>
typename Traits<T>::Int uint2int(typename Traits<T>::UInt u) {
  using Int = typename Traits<T>::Int;
  return static_cast<Int>((u ^ Traits<T>::nbmask) - Traits<T>::nbmask);
}

// --- embedded bit-plane coding ----------------------------------------------

// Encode one bit plane (low `size` bits of x) given the running significant
// prefix length n; mirrors ZFP's encode_ints inner loops.
inline void encode_plane(BitWriter& bw, std::uint64_t x, unsigned& n,
                         unsigned size) {
  bw.write_bits(x, n);
  x = n < 64 ? x >> n : 0;
  for (; n < size && (bw.write_bit(x != 0), x != 0); x >>= 1, n++)
    for (; n < size - 1 && (bw.write_bit(x & 1), !(x & 1)); x >>= 1, n++) {
    }
}

inline std::uint64_t decode_plane(BitReader& br, unsigned& n, unsigned size) {
  std::uint64_t x = br.read_bits(n);
  for (; n < size && br.read_bit(); x += std::uint64_t{1} << n++)
    for (; n < size - 1 && !br.read_bit(); n++) {
    }
  return x;
}

// --- block gather / scatter --------------------------------------------------

struct BlockGrid {
  Dims dims;
  std::size_t nbx = 1, nby = 1, nbz = 1;
  std::size_t nx = 1, ny = 1, nz = 1;

  explicit BlockGrid(Dims d) : dims(d) {
    nx = d[d.nd - 1];
    ny = d.nd >= 2 ? d[d.nd - 2] : 1;
    nz = d.nd == 3 ? d[0] : 1;
    nbx = (nx + 3) / 4;
    nby = d.nd >= 2 ? (ny + 3) / 4 : 1;
    nbz = d.nd == 3 ? (nz + 3) / 4 : 1;
  }
  std::size_t num_blocks() const { return nbx * nby * nbz; }
};

template <typename T>
void gather(const T* data, const BlockGrid& g, std::size_t bz, std::size_t by,
            std::size_t bx, int nd, T* block) {
  for (std::size_t z = 0; z < (nd == 3 ? 4u : 1u); ++z)
    for (std::size_t y = 0; y < (nd >= 2 ? 4u : 1u); ++y)
      for (std::size_t x = 0; x < 4u; ++x) {
        // Clamp-replicate at partial-block edges.
        std::size_t sz = std::min(bz * 4 + z, g.nz - 1);
        std::size_t sy = std::min(by * 4 + y, g.ny - 1);
        std::size_t sx = std::min(bx * 4 + x, g.nx - 1);
        std::size_t src = (sz * g.ny + sy) * g.nx + sx;
        block[(z * (nd >= 2 ? 4 : 1) + y) * 4 + x] = data[src];
      }
}

template <typename T>
void scatter(const T* block, const BlockGrid& g, std::size_t bz,
             std::size_t by, std::size_t bx, int nd, T* data) {
  for (std::size_t z = 0; z < (nd == 3 ? 4u : 1u); ++z)
    for (std::size_t y = 0; y < (nd >= 2 ? 4u : 1u); ++y)
      for (std::size_t x = 0; x < 4u; ++x) {
        std::size_t dz = bz * 4 + z, dy = by * 4 + y, dx = bx * 4 + x;
        if (dz >= g.nz || dy >= g.ny || dx >= g.nx) continue;
        std::size_t dst = (dz * g.ny + dy) * g.nx + dx;
        data[dst] = block[(z * (nd >= 2 ? 4 : 1) + y) * 4 + x];
      }
}

// Block exponent e such that |x| < 2^e for every x in the block; INT_MIN for
// an all-zero block.
template <typename T>
int block_emax(const T* block, unsigned size) {
  double m = 0;
  for (unsigned i = 0; i < size; ++i) {
    double a = std::abs(static_cast<double>(block[i]));
    // NaN/Inf cannot be block-floating-point scaled (the double->Int cast
    // below would be undefined); reject instead of encoding garbage.
    if (!std::isfinite(a))
      throw ParamError("zfp: non-finite value in input");
    m = std::max(m, a);
  }
  if (m == 0) return std::numeric_limits<int>::min();
  int e = 0;
  std::frexp(m, &e);  // m = f * 2^e, f in [0.5, 1) => |x| <= m < 2^e
  return e;
}

/// Everything a block decode needs besides the reader position.
struct DecodeCtx {
  Mode mode;
  int minexp;
  std::uint32_t precision;
  int slack;
  int nd;
  unsigned bsize;
};

/// Decode one block payload (flag, exponent, bit planes) and reconstruct
/// its 4^nd values into `vals`.
template <typename T>
void decode_one_block(BitReader& br, const DecodeCtx& ctx, T* vals) {
  using Int = typename Traits<T>::Int;
  using UInt = typename Traits<T>::UInt;
  constexpr int intprec = Traits<T>::intprec;

  if (!br.read_bit()) {  // skipped block
    std::fill(vals, vals + ctx.bsize, T{0});
    return;
  }
  int emax = static_cast<int>(br.read_bits(kEmaxBits)) - kEmaxBias;
  int maxprec =
      ctx.mode == Mode::kAccuracy
          ? std::min(intprec, std::max(1, emax - ctx.minexp + ctx.slack))
          // Clamp before the signed cast: a corrupt header can carry a
          // precision whose int conversion is negative.
          : static_cast<int>(std::min<std::uint32_t>(
                ctx.precision, static_cast<std::uint32_t>(intprec)));
  const unsigned kmin = static_cast<unsigned>(intprec - maxprec);

  std::array<UInt, 64> uints{};
  unsigned n = 0;
  for (int k = intprec; static_cast<unsigned>(k--) > kmin;) {
    std::uint64_t plane = decode_plane(br, n, ctx.bsize);
    for (unsigned i = 0; plane; ++i, plane >>= 1)
      uints[i] |= static_cast<UInt>(plane & 1u) << k;
  }

  std::array<Int, 64> ints{};
  const std::uint8_t* pm = perm(ctx.nd);
  for (unsigned i = 0; i < ctx.bsize; ++i)
    ints[pm[i]] = uint2int<T>(uints[i]);
  inv_xform(ints.data(), ctx.nd);
  // Saturating cast: a corrupt exponent field can put the rescaled
  // coefficient far outside T's finite range.
  for (unsigned i = 0; i < ctx.bsize; ++i)
    vals[i] = narrow_to<T>(
        std::ldexp(static_cast<double>(ints[i]), emax - (intprec - 2)));
}

void validate(const Params& p, const Dims& dims) {
  dims.validate();
  if (p.mode == Mode::kAccuracy && !(p.tolerance > 0))
    throw ParamError("zfp: tolerance must be positive");
  if (p.mode == Mode::kPrecision && p.precision == 0)
    throw ParamError("zfp: precision must be >= 1");
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params) {
  validate(params, dims);
  if (data.size() != dims.count())
    throw ParamError("zfp: data size does not match dims");
  obs::Span compress_span("zfp.compress");

  using Int = typename Traits<T>::Int;
  using UInt = typename Traits<T>::UInt;
  constexpr int intprec = Traits<T>::intprec;
  const int nd = dims.nd;
  const unsigned bsize = 1u << (2 * nd);  // 4^nd
  const int slack = precision_slack(nd);
  const int minexp =
      params.mode == Mode::kAccuracy
          ? static_cast<int>(std::floor(std::log2(params.tolerance)))
          : std::numeric_limits<int>::min() / 2;

  BlockGrid g(dims);
  BitWriter bw;

  std::array<T, 64> vals{};
  std::array<Int, 64> ints{};
  std::array<UInt, 64> uints{};

  for (std::size_t bz = 0; bz < g.nbz; ++bz)
    for (std::size_t by = 0; by < g.nby; ++by)
      for (std::size_t bx = 0; bx < g.nbx; ++bx) {
        gather(data.data(), g, bz, by, bx, nd, vals.data());
        int emax = block_emax(vals.data(), bsize);

        // Skippable block: reconstructing all-zero keeps |x| < 2^emax <=
        // 2^minexp <= tolerance.
        if (emax == std::numeric_limits<int>::min() ||
            (params.mode == Mode::kAccuracy && emax <= minexp)) {
          bw.write_bit(false);
        } else {
          bw.write_bit(true);
          bw.write_bits(static_cast<std::uint64_t>(emax + kEmaxBias),
                        kEmaxBits);

          int maxprec =
              params.mode == Mode::kAccuracy
                  ? std::min(intprec, std::max(1, emax - minexp + slack))
                  // Clamp before the signed cast so a huge requested
                  // precision cannot convert to a negative int.
                  : static_cast<int>(std::min<std::uint32_t>(
                        params.precision, static_cast<std::uint32_t>(intprec)));
          const unsigned kmin = static_cast<unsigned>(intprec - maxprec);

          // Block-floating-point: scale by 2^(intprec-2-emax) and round
          // toward zero (cast), guaranteeing |q| < 2^(intprec-2).
          for (unsigned i = 0; i < bsize; ++i)
            ints[i] = static_cast<Int>(std::ldexp(
                static_cast<double>(vals[i]), intprec - 2 - emax));

          fwd_xform(ints.data(), nd);

          const std::uint8_t* pm = perm(nd);
          for (unsigned i = 0; i < bsize; ++i)
            uints[i] = int2uint<T>(ints[pm[i]]);

          unsigned n = 0;
          for (int k = intprec; static_cast<unsigned>(k--) > kmin;) {
            std::uint64_t plane = 0;
            for (unsigned i = 0; i < bsize; ++i)
              plane |= static_cast<std::uint64_t>((uints[i] >> k) & 1u) << i;
            encode_plane(bw, plane, n, bsize);
          }
        }
      }

  auto payload = bw.take();
  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(data_type_of<T>()));
  out.put(static_cast<std::uint8_t>(nd));
  out.put(static_cast<std::uint8_t>(params.mode));
  out.put(std::uint8_t{0});
  for (int i = 0; i < 3; ++i)
    out.put(static_cast<std::uint64_t>(dims.d[static_cast<std::size_t>(i)]));
  out.put(params.tolerance);
  out.put(params.precision);
  out.put(kReservedRate);
  out.put_sized(payload);
  return out.take();
}

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out) {
  obs::Span decompress_span("zfp.decompress");
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic) throw StreamError("zfp: bad magic");
  auto dtype = static_cast<DataType>(in.get<std::uint8_t>());
  if (dtype != data_type_of<T>())
    throw StreamError("zfp: stream data type does not match requested type");
  int nd = in.get<std::uint8_t>();
  std::uint8_t mode_byte = in.get<std::uint8_t>();
  if (mode_byte > static_cast<std::uint8_t>(Mode::kPrecision))
    throw StreamError("zfp: unknown mode byte");
  auto mode = static_cast<Mode>(mode_byte);
  in.get<std::uint8_t>();
  Dims dims;
  dims.nd = nd;
  for (int i = 0; i < 3; ++i)
    dims.d[static_cast<std::size_t>(i)] =
        static_cast<std::size_t>(in.get<std::uint64_t>());
  const std::size_t n = checked_count(dims, "zfp");
  check_decode_alloc(n, sizeof(T), "zfp");
  double tolerance = in.get<double>();
  std::uint32_t precision = in.get<std::uint32_t>();
  in.get<double>();  // reserved rate slot
  // The tolerance feeds log2 below; NaN or a non-positive value would make
  // the int conversion undefined.
  if (mode == Mode::kAccuracy && !(tolerance > 0 && std::isfinite(tolerance)))
    throw StreamError("zfp: bad tolerance in stream header");
  if (dims_out) *dims_out = dims;

  const unsigned bsize = 1u << (2 * nd);
  DecodeCtx ctx;
  ctx.mode = mode;
  ctx.minexp = mode == Mode::kAccuracy
                   ? static_cast<int>(std::floor(std::log2(tolerance)))
                   : std::numeric_limits<int>::min() / 2;
  ctx.precision = precision;
  ctx.slack = precision_slack(nd);
  ctx.nd = nd;
  ctx.bsize = bsize;

  BlockGrid g(dims);
  auto payload = in.get_sized();
  // Every block costs at least its skip flag, one bit, so inflated dims
  // cannot be honest against a short payload.
  if (g.num_blocks() > payload.size() * 8 + 1)
    throw StreamError("zfp: dims exceed payload capacity");
  BitReader br(payload);

  std::vector<T> out(n, T{0});
  std::array<T, 64> vals{};
  for (std::size_t bz = 0; bz < g.nbz; ++bz)
    for (std::size_t by = 0; by < g.nby; ++by)
      for (std::size_t bx = 0; bx < g.nbx; ++bx) {
        decode_one_block(br, ctx, vals.data());
        scatter(vals.data(), g, bz, by, bx, nd, out.data());
      }
  return out;
}

std::vector<double> transform_block_for_analysis(
    std::span<const double> values, int nd) {
  if (nd < 1 || nd > 3) throw ParamError("zfp: nd must be 1..3");
  const unsigned bsize = 1u << (2 * nd);
  if (values.size() != bsize)
    throw ParamError("zfp: analysis block must hold 4^nd values");

  using Int = Traits<double>::Int;
  constexpr int intprec = Traits<double>::intprec;
  std::array<double, 64> vals{};
  std::copy(values.begin(), values.end(), vals.begin());
  int emax = block_emax(vals.data(), bsize);
  if (emax == std::numeric_limits<int>::min())
    return std::vector<double>(bsize, 0.0);

  std::array<Int, 64> ints{};
  for (unsigned i = 0; i < bsize; ++i)
    ints[i] = static_cast<Int>(std::ldexp(vals[i], intprec - 2 - emax));
  fwd_xform(ints.data(), nd);

  const std::uint8_t* pm = perm(nd);
  std::vector<double> coeffs(bsize);
  for (unsigned i = 0; i < bsize; ++i)
    coeffs[i] =
        std::ldexp(static_cast<double>(ints[pm[i]]), emax - (intprec - 2));
  return coeffs;
}

template std::vector<std::uint8_t> compress<float>(std::span<const float>,
                                                   Dims, const Params&);
template std::vector<std::uint8_t> compress<double>(std::span<const double>,
                                                    Dims, const Params&);
template std::vector<float> decompress<float>(std::span<const std::uint8_t>,
                                              Dims*);
template std::vector<double> decompress<double>(std::span<const std::uint8_t>,
                                                Dims*);

}  // namespace zfp
}  // namespace transpwr
