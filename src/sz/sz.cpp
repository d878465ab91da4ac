#include "sz/sz.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "common/numeric.h"
#include "kernels/dispatch.h"
#include "kernels/lorenzo.h"
#include "lossless/lossless.h"
#include "obs/obs.h"
#include "sz/sections.h"

namespace transpwr {
namespace sz {
namespace {

constexpr std::uint32_t kMagic = 0x315A5354;  // "TSZ1"
constexpr std::int16_t kAllZeroBlock = std::numeric_limits<std::int16_t>::min();

// Writers always quantize into 65536 intervals and store the count; the
// decoder honors whatever count a stream carries.
constexpr std::uint32_t kIntervals = 65536;

// Predictor byte: writers always store Lorenzo. Byte 1, the SZ 2.x-style
// hybrid of Lorenzo and per-block linear regression, is only decoded, so
// streams from v1-era writers keep reading.
constexpr std::uint8_t kPredictorLorenzo = 0;
constexpr std::uint8_t kPredictorHybrid = 1;

/// PWR-mode block edge per dimensionality.
std::uint32_t default_block_edge(int nd) {
  switch (nd) {
    case 1:
      return 32;
    case 2:
      return 12;
    default:
      return 8;
  }
}

void validate(const Params& p, const Dims& dims) {
  dims.validate();
  if (!(p.bound > 0)) throw ParamError("sz: bound must be positive");
}

/// Geometry shared by the encode and decode passes: strides, and the
/// per-point block id used by the PWR mode.
struct Geometry {
  Dims dims;
  std::size_t stride_y = 0, stride_z = 0;  // element strides
  std::uint32_t edge = 1;
  std::size_t nbx = 1, nby = 1, nbz = 1;

  explicit Geometry(Dims d, std::uint32_t block_edge) : dims(d) {
    if (d.nd == 1) {
      stride_y = stride_z = 0;
    } else if (d.nd == 2) {
      stride_y = d[1];  // row stride for [ny][nx]
    } else {
      stride_y = d[2];
      stride_z = d[1] * d[2];
    }
    edge = block_edge;
    if (edge) {
      if (d.nd == 1) {
        nbx = (d[0] + edge - 1) / edge;
      } else if (d.nd == 2) {
        nby = (d[0] + edge - 1) / edge;
        nbx = (d[1] + edge - 1) / edge;
      } else {
        nbz = (d[0] + edge - 1) / edge;
        nby = (d[1] + edge - 1) / edge;
        nbx = (d[2] + edge - 1) / edge;
      }
    }
  }

  std::size_t num_blocks() const { return nbx * nby * nbz; }

  std::size_t block_of(std::size_t z, std::size_t y, std::size_t x) const {
    if (dims.nd == 1) return x / edge;
    if (dims.nd == 2) return (y / edge) * nbx + x / edge;
    return ((z / edge) * nby + y / edge) * nbx + x / edge;
  }
};

/// Per-block exponent of the minimum nonzero |x| (PWR mode). Blocks with no
/// nonzero value get the kAllZeroBlock sentinel.
template <typename T>
std::vector<std::int16_t> block_exponents(std::span<const T> data,
                                          const Geometry& g) {
  std::vector<double> min_nonzero(g.num_blocks(),
                                  std::numeric_limits<double>::infinity());
  const std::size_t nz = g.dims.nd == 3 ? g.dims[0] : 1;
  const std::size_t ny = g.dims.nd >= 2 ? g.dims[g.dims.nd - 2] : 1;
  const std::size_t nx = g.dims[g.dims.nd - 1];
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        double a = std::abs(static_cast<double>(data[idx]));
        if (a > 0) {
          std::size_t b = g.block_of(z, y, x);
          min_nonzero[b] = std::min(min_nonzero[b], a);
        }
      }
  std::vector<std::int16_t> exps(g.num_blocks());
  for (std::size_t b = 0; b < exps.size(); ++b) {
    if (!std::isfinite(min_nonzero[b])) {
      exps[b] = kAllZeroBlock;
    } else {
      int e = 0;
      std::frexp(min_nonzero[b], &e);
      // min = m * 2^e with m in [0.5, 1) => floor(log2 min) = e - 1.
      exps[b] = static_cast<std::int16_t>(
          std::clamp(e - 1, -16000, 16000));
    }
  }
  return exps;
}

double block_bound(double rel_bound, std::int16_t exp) {
  if (exp == kAllZeroBlock) return std::ldexp(rel_bound, -200);
  return std::ldexp(rel_bound, exp);
}

/// Hybrid-predictor plan of a v1-era stream (predictor byte 1): per
/// regression-grid block, a choice bit and, for regression blocks, the nd+1
/// fitted plane coefficients f = c0 + c1*x + c2*y + c3*z over block-local
/// coordinates (intercept, then one slope per axis, x fastest).
template <typename T>
struct RegPlan {
  std::vector<std::uint8_t> use_reg;   // 1 per block
  std::vector<T> coeffs;               // (nd+1) per regression block
  std::vector<std::size_t> coeff_off;  // per block; SIZE_MAX if Lorenzo

  bool regression_for(std::size_t block) const {
    return !use_reg.empty() && use_reg[block] != 0;
  }
  double predict(std::size_t block, int nd, std::size_t lz, std::size_t ly,
                 std::size_t lx) const {
    const T* c = coeffs.data() + coeff_off[block];
    double p = static_cast<double>(c[0]) +
               static_cast<double>(c[1]) * static_cast<double>(lx);
    if (nd >= 2) p += static_cast<double>(c[2]) * static_cast<double>(ly);
    if (nd == 3) p += static_cast<double>(c[3]) * static_cast<double>(lz);
    return p;
  }

  /// Rebuild coeff_off from use_reg.
  void index(int nd) {
    coeff_off.assign(use_reg.size(), SIZE_MAX);
    std::size_t off = 0;
    for (std::size_t b = 0; b < use_reg.size(); ++b)
      if (use_reg[b]) {
        coeff_off[b] = off;
        off += static_cast<std::size_t>(nd) + 1;
      }
  }
};

/// Interior rows advanced together by the 3-D wavefront encode. Four lanes
/// cover the quantizer's div+round+narrow latency chain on current cores;
/// wider fronts spill the sliding stencil state out of registers.
constexpr int kWavefrontRows = 4;

}  // namespace

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& p,
                                   std::vector<T>* recon_out) {
  validate(p, dims);
  if (data.size() != dims.count())
    throw ParamError("sz: data size does not match dims");
  obs::Span compress_span("sz.compress");

  const bool pwr = p.mode == Mode::kPwrBlock;
  // kAbs streams store block edge 0: the mode has no blocks.
  const std::uint32_t block_edge = pwr ? default_block_edge(dims.nd) : 0;
  Geometry g(dims, pwr ? block_edge : 1);

  std::vector<std::int16_t> exps;
  if (pwr) exps = block_exponents<T>(data, g);

  const std::uint32_t radius = kIntervals / 2;
  std::vector<std::uint32_t> codes(data.size());
  std::vector<T> outliers;
  std::vector<T> recon(data.size());

  const std::size_t nz = dims.nd == 3 ? dims[0] : 1;
  const std::size_t ny = dims.nd >= 2 ? dims[dims.nd - 2] : 1;
  const std::size_t nx = dims[dims.nd - 1];

  {
    obs::Span predict_span("predict");
    const auto radius_i = static_cast<std::int64_t>(radius);
    const double rad2 = (static_cast<double>(radius) - 0.5) * 2.0;
    const auto point_row = [&](std::size_t z, std::size_t y) {
      std::size_t idx = (z * ny + y) * nx;
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        const double eb =
            pwr ? block_bound(p.bound, exps[g.block_of(z, y, x)]) : p.bound;
        const double pred = kernels::lorenzo_predict(
            recon.data(), dims.nd, g.stride_y, g.stride_z, z, y, x, idx);
        const auto qs = kernels::quantize_point<T>(
            data[idx], pred, eb, 2.0 * eb, rad2 * eb, radius_i);
        codes[idx] = qs.code;
        recon[idx] = qs.recon;
      }
    };
    // Native kAbs 3-D fields advance W interior rows at a time in a
    // staggered front (kernels::lorenzo_quant_wavefront3); boundary planes,
    // boundary rows and the remainder rows run the per-point sweep.
    constexpr int W = kWavefrontRows;
    const bool wavefront = kernels::active() == kernels::Dispatch::kNative &&
                           dims.nd == 3 && !pwr && nx >= W;
    for (std::size_t z = 0; z < nz; ++z)
      for (std::size_t y = 0; y < ny;) {
        if (wavefront && z > 0 && y > 0 && y + W <= ny) {
          kernels::lorenzo_quant_wavefront3<T, W>(
              data.data(), recon.data(), codes.data(),
              z * g.stride_z + y * g.stride_y, nx, g.stride_y, g.stride_z,
              p.bound, 2.0 * p.bound, rad2 * p.bound, radius_i);
          y += W;
        } else {
          point_row(z, y++);
        }
      }
    // The sweep only marks outliers; gather their values in raster order.
    for (std::size_t i = 0; i < codes.size(); ++i)
      if (codes[i] == 0) outliers.push_back(data[i]);
  }
  obs::counter_add("sz.outliers", outliers.size());
  // The sweep's reconstruction is bit for bit what decompress() rebuilds.
  if (recon_out) *recon_out = std::move(recon);

  const sz_detail::CodesSection coded =
      sz_detail::encode_codes(codes, kIntervals, p.threads);

  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(data_type_of<T>()));
  out.put(static_cast<std::uint8_t>(dims.nd));
  out.put(static_cast<std::uint8_t>(p.mode));
  out.put(coded.format);
  out.put(kPredictorLorenzo);
  for (int i = 0; i < 3; ++i)
    out.put(static_cast<std::uint64_t>(dims.d[static_cast<std::size_t>(i)]));
  out.put(p.bound);
  out.put(kIntervals);
  out.put(block_edge);

  if (pwr) {
    auto exp_bytes = lossless::compress(
        {reinterpret_cast<const std::uint8_t*>(exps.data()),
         exps.size() * sizeof(std::int16_t)},
        p.threads);
    out.put_sized(exp_bytes);
  }
  out.put_sized(coded.bytes);
  out.put_sized(sz_detail::encode_outliers(outliers, p.threads));
  return out.take();
}

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out, std::size_t threads) {
  obs::Span decompress_span("sz.decompress");
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw StreamError("sz: bad magic");
  auto dtype = static_cast<DataType>(in.get<std::uint8_t>());
  if (dtype != data_type_of<T>())
    throw StreamError("sz: stream data type does not match requested type");
  int nd = in.get<std::uint8_t>();
  std::uint8_t mode_byte = in.get<std::uint8_t>();
  if (mode_byte > static_cast<std::uint8_t>(Mode::kPwrBlock))
    throw StreamError("sz: unknown mode byte");
  auto mode = static_cast<Mode>(mode_byte);
  const std::uint8_t codes_format =
      sz_detail::check_codes_format(in.get<std::uint8_t>(), "sz");
  std::uint8_t pred_byte = in.get<std::uint8_t>();
  if (pred_byte != kPredictorLorenzo && pred_byte != kPredictorHybrid)
    throw StreamError("sz: unknown predictor byte");
  Dims dims;
  dims.nd = nd;
  for (int i = 0; i < 3; ++i)
    dims.d[static_cast<std::size_t>(i)] =
        static_cast<std::size_t>(in.get<std::uint64_t>());
  const std::size_t n = checked_count(dims, "sz");
  check_decode_alloc(n, sizeof(T), "sz");
  double bound = in.get<double>();
  std::uint32_t intervals = in.get<std::uint32_t>();
  std::uint32_t block_edge = in.get<std::uint32_t>();
  const bool pwr = mode == Mode::kPwrBlock;
  if (pwr && block_edge == 0)
    throw StreamError("sz: zero block edge in PWR mode");
  if (dims_out) *dims_out = dims;

  Geometry g(dims, pwr ? block_edge : 1);

  const bool hybrid = pred_byte == kPredictorHybrid;
  std::uint32_t reg_edge = 1;
  RegPlan<T> reg;
  if (hybrid) {
    reg_edge = in.get<std::uint32_t>();
    if (reg_edge == 0) throw StreamError("sz: bad regression edge");
    reg.use_reg = lossless::decompress(in.get_sized(), threads);
    auto coeff_bytes = lossless::decompress(in.get_sized(), threads);
    if (coeff_bytes.size() % sizeof(T) != 0)
      throw StreamError("sz: regression coefficient size mismatch");
    reg.coeffs.resize(coeff_bytes.size() / sizeof(T));
    std::memcpy(reg.coeffs.data(), coeff_bytes.data(), coeff_bytes.size());
    reg.index(nd);
    // The choice bitmap decides how many coefficient tuples predict() will
    // dereference; a corrupt bitmap must not point past the stored table.
    std::size_t reg_blocks = 0;
    for (auto u : reg.use_reg)
      if (u) ++reg_blocks;
    if (reg_blocks * (static_cast<std::size_t>(nd) + 1) > reg.coeffs.size())
      throw StreamError("sz: regression plan references missing coefficients");
  }
  Geometry rg(dims, hybrid ? reg_edge : 1);
  if (hybrid && reg.use_reg.size() != rg.num_blocks())
    throw StreamError("sz: regression plan size mismatch");
  std::vector<std::int16_t> exps;
  if (pwr) {
    auto exp_bytes = lossless::decompress(in.get_sized(), threads);
    if (exp_bytes.size() != g.num_blocks() * sizeof(std::int16_t))
      throw StreamError("sz: block exponent section size mismatch");
    exps.resize(g.num_blocks());
    std::memcpy(exps.data(), exp_bytes.data(), exp_bytes.size());
  }

  auto coded = in.get_sized();
  const std::vector<T> outliers =
      sz_detail::decode_outliers<T>(in.get_sized(), threads);
  const std::vector<std::uint32_t> codes =
      sz_detail::decode_codes(coded, codes_format, n, threads, "sz");

  obs::Span recon_span("reconstruct");
  const auto radius = static_cast<std::int64_t>(intervals / 2);
  std::vector<T> recon(n);
  const std::size_t nz = dims.nd == 3 ? dims[0] : 1;
  const std::size_t ny = dims.nd >= 2 ? dims[dims.nd - 2] : 1;
  const std::size_t nx = dims[dims.nd - 1];
  std::size_t outlier_next = 0;
  // The per-point body, and the reference every dispatch must match bit
  // for bit: an outlier, or the Lorenzo (or v1 regression) prediction plus
  // the dequantized error.
  const auto point = [&](std::size_t z, std::size_t y, std::size_t x,
                         std::size_t i, double two_eb) {
    if (codes[i] == 0) {
      if (outlier_next >= outliers.size())
        throw StreamError("sz: outlier stream exhausted");
      recon[i] = outliers[outlier_next++];
      return;
    }
    double pred;
    std::size_t rb = 0;
    if (hybrid && (rb = rg.block_of(z, y, x), reg.regression_for(rb)))
      pred = reg.predict(rb, nd, z % rg.edge, y % rg.edge, x % rg.edge);
    else
      pred = kernels::lorenzo_predict(recon.data(), nd, g.stride_y,
                                      g.stride_z, z, y, x, i);
    recon[i] = kernels::dequantize_point<T>(
        pred, two_eb, static_cast<std::int64_t>(codes[i]) - radius);
  };
  // Rows are cut into constant-bound segments (the whole row in kAbs mode,
  // block-edge-aligned pieces in PWR mode). Under native dispatch a pure
  // Lorenzo segment's full-stencil interior runs the sliding-stencil
  // kernel; x == 0 and the first row of a plane or the first plane keep
  // the checked per-point body. Both evaluate the same expressions in the
  // same order.
  const bool use_runs =
      !hybrid && kernels::active() == kernels::Dispatch::kNative;
  const auto run = nd == 1   ? kernels::lorenzo_recon_run<1, T>
                   : nd == 2 ? kernels::lorenzo_recon_run<2, T>
                             : kernels::lorenzo_recon_run<3, T>;
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y, idx += nx) {
      const bool row_runs =
          use_runs && (nd == 1 || y > 0) && (nd < 3 || z > 0);
      for (std::size_t x = 0; x < nx;) {
        const std::size_t xe = pwr ? std::min(nx, (x / g.edge + 1) * g.edge)
                                   : nx;
        const double two_eb =
            2.0 * (pwr ? block_bound(bound, exps[g.block_of(z, y, x)])
                       : bound);
        const std::size_t run_start =
            row_runs ? std::max<std::size_t>(x, 1) : xe;
        for (; x < run_start; ++x) point(z, y, x, idx + x, two_eb);
        if (x == xe) continue;
        run(codes.data(), recon.data(), outliers.data(), outliers.size(),
            outlier_next, idx + x, xe - x, g.stride_y, g.stride_z, two_eb,
            radius);
        x = xe;
      }
    }
  if (outlier_next != outliers.size())
    throw StreamError("sz: trailing outliers in stream");
  return recon;
}

template std::vector<std::uint8_t> compress<float>(std::span<const float>,
                                                   Dims, const Params&,
                                                   std::vector<float>*);
template std::vector<std::uint8_t> compress<double>(std::span<const double>,
                                                    Dims, const Params&,
                                                    std::vector<double>*);
template std::vector<float> decompress<float>(std::span<const std::uint8_t>,
                                              Dims*, std::size_t);
template std::vector<double> decompress<double>(std::span<const std::uint8_t>,
                                                Dims*, std::size_t);

}  // namespace sz
}  // namespace transpwr
