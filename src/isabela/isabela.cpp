#include "isabela/isabela.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "common/numeric.h"
#include "lossless/huffman.h"
#include "lossless/lossless.h"
#include "obs/obs.h"

namespace transpwr {
namespace isabela {
namespace {

constexpr std::uint32_t kMagic = 0x31425349;  // "ISB1"
constexpr std::uint32_t kRadius = 1u << 15;   // correction code radius
constexpr std::uint32_t kAlphabet = 2 * kRadius;
// Header byte 6 names the curve fit; the cubic (1) is the only one.
constexpr std::uint8_t kCubicFit = 1;

unsigned bits_for(std::size_t n) {
  unsigned b = 0;
  while ((std::size_t{1} << b) < n) ++b;
  return b;
}

void validate(const Params& p) {
  if (!(p.rel_bound > 0)) throw ParamError("isabela: bound must be positive");
  if (p.window < 16) throw ParamError("isabela: window too small");
  if (p.control_every < 2 || p.control_every >= p.window)
    throw ParamError("isabela: control_every out of range");
}

/// Interpolation of the sorted curve from its control points. Control
/// points sit at sorted positions 0, stride, 2*stride, ..., L-1. The fit
/// is a clamped Catmull-Rom through the controls, mirroring ISABELA's
/// B-spline fit; the sorted curve is monotone and smooth, so the cubic
/// tracks it with small corrections.
template <typename T>
double fit_at(const std::vector<T>& controls, std::uint32_t stride,
              std::size_t len, std::size_t j) {
  std::size_t seg = j / stride;
  std::size_t lo = seg * stride;
  std::size_t hi = std::min(lo + stride, len - 1);
  double p1 = static_cast<double>(controls[seg]);
  if (hi == lo) return p1;
  double p2 = static_cast<double>(controls[seg + 1]);
  double t = static_cast<double>(j - lo) / static_cast<double>(hi - lo);

  // Catmull-Rom with clamped end tangents.
  std::size_t nc = controls.size();
  double p0 = seg > 0 ? static_cast<double>(controls[seg - 1]) : p1;
  double p3 = seg + 2 < nc ? static_cast<double>(controls[seg + 2]) : p2;
  double t2 = t * t, t3 = t2 * t;
  return 0.5 * ((2.0 * p1) + (-p0 + p2) * t +
                (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t2 +
                (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * t3);
}

template <typename T>
std::size_t num_controls(std::size_t len, std::uint32_t stride) {
  if (len == 0) return 0;
  return (len - 1) / stride + 2;  // every stride-th point plus the last
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params) {
  validate(params);
  dims.validate();
  if (data.size() != dims.count())
    throw ParamError("isabela: data size does not match dims");
  obs::Span compress_span("isabela.compress");

  const std::size_t n = data.size();
  const std::size_t W = params.window;
  const double br = params.rel_bound;
  const double tiny = std::numeric_limits<double>::min();

  // NaNs break the window sort's strict weak ordering (std::sort may walk
  // out of bounds on an inconsistent comparator); reject non-finite input.
  for (T v : data)
    if (!std::isfinite(static_cast<double>(v)))
      throw ParamError("isabela: non-finite value in input");

  BitWriter perm_bits;
  std::vector<T> controls_all;
  std::vector<std::uint32_t> codes;
  std::vector<T> outliers;
  codes.reserve(n);

  std::vector<std::uint32_t> order;
  for (std::size_t w0 = 0; w0 < n; w0 += W) {
    const std::size_t len = std::min(W, n - w0);
    order.resize(len);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a,
                                              std::uint32_t b) {
      T va = data[w0 + a], vb = data[w0 + b];
      if (va != vb) return va < vb;
      return a < b;
    });

    const unsigned pbits = bits_for(len);
    for (auto o : order) perm_bits.write_bits(o, pbits);

    // Control points over the sorted curve.
    std::size_t nc = num_controls<T>(len, params.control_every);
    std::vector<T> controls(nc);
    for (std::size_t c = 0; c + 1 < nc; ++c)
      controls[c] = data[w0 + order[std::min(c * params.control_every,
                                             len - 1)]];
    controls[nc - 1] = data[w0 + order[len - 1]];
    controls_all.insert(controls_all.end(), controls.begin(), controls.end());

    // Quantized per-point corrections against the fitted curve.
    for (std::size_t j = 0; j < len; ++j) {
      double s = static_cast<double>(data[w0 + order[j]]);
      double fit = fit_at(controls, params.control_every, len, j);
      double bin = br * std::max(std::abs(fit), tiny);
      double qd = (s - fit) / bin;
      bool ok = false;
      if (std::abs(qd) < static_cast<double>(kRadius) - 1) {
        auto q = static_cast<std::int64_t>(std::llround(qd));
        T r = narrow_to<T>(fit + bin * static_cast<double>(q));
        double err = std::abs(static_cast<double>(r) - s);
        if (err <= br * std::abs(s)) {
          codes.push_back(static_cast<std::uint32_t>(
              static_cast<std::int64_t>(kRadius) + q));
          ok = true;
        }
      }
      if (!ok) {
        codes.push_back(0);
        outliers.push_back(data[w0 + order[j]]);
      }
    }
  }

  HuffmanCoder huff;
  huff.build_from(codes, kAlphabet);
  BitWriter cw;
  huff.write_table(cw);
  for (auto c : codes) huff.encode(c, cw);

  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(data_type_of<T>()));
  out.put(static_cast<std::uint8_t>(dims.nd));
  out.put(kCubicFit);
  out.put(std::uint8_t{0});
  for (int i = 0; i < 3; ++i)
    out.put(static_cast<std::uint64_t>(dims.d[static_cast<std::size_t>(i)]));
  out.put(br);
  out.put(params.window);
  out.put(params.control_every);
  out.put_sized(perm_bits.take());
  auto control_bytes = lossless::compress(
      {reinterpret_cast<const std::uint8_t*>(controls_all.data()),
       controls_all.size() * sizeof(T)});
  out.put_sized(control_bytes);
  out.put_sized(cw.take());
  auto outlier_bytes = lossless::compress(
      {reinterpret_cast<const std::uint8_t*>(outliers.data()),
       outliers.size() * sizeof(T)});
  out.put_sized(outlier_bytes);
  return out.take();
}

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out) {
  obs::Span decompress_span("isabela.decompress");
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw StreamError("isabela: bad magic");
  auto dtype = static_cast<DataType>(in.get<std::uint8_t>());
  if (dtype != data_type_of<T>())
    throw StreamError("isabela: stream data type does not match");
  int nd = in.get<std::uint8_t>();
  if (in.get<std::uint8_t>() != kCubicFit)
    throw StreamError("isabela: unknown fit byte");
  in.get<std::uint8_t>();
  Dims dims;
  dims.nd = nd;
  for (int i = 0; i < 3; ++i)
    dims.d[static_cast<std::size_t>(i)] =
        static_cast<std::size_t>(in.get<std::uint64_t>());
  const std::size_t n = checked_count(dims, "isabela");
  check_decode_alloc(n, sizeof(T), "isabela");
  double br = in.get<double>();
  std::uint32_t W = in.get<std::uint32_t>();
  std::uint32_t control_every = in.get<std::uint32_t>();
  // The window loop strides by W and the fit divides by control_every; the
  // encoder enforces these same constraints on its parameters.
  if (W < 16) throw StreamError("isabela: bad window in stream header");
  if (control_every < 2 || control_every >= W)
    throw StreamError("isabela: bad control stride in stream header");
  if (dims_out) *dims_out = dims;

  auto perm_span = in.get_sized();
  auto controls_bytes = lossless::decompress(in.get_sized());
  auto codes_span = in.get_sized();
  auto outlier_bytes = lossless::decompress(in.get_sized());

  // Truncated sections round the element count down; copying the raw byte
  // count into the shorter vector would write past (or before) it.
  if (controls_bytes.size() % sizeof(T) != 0)
    throw StreamError("isabela: control section size mismatch");
  if (outlier_bytes.size() % sizeof(T) != 0)
    throw StreamError("isabela: outlier section size mismatch");
  std::vector<T> controls_all(controls_bytes.size() / sizeof(T));
  if (!controls_bytes.empty())
    std::memcpy(controls_all.data(), controls_bytes.data(),
                controls_bytes.size());
  std::vector<T> outliers(outlier_bytes.size() / sizeof(T));
  if (!outlier_bytes.empty())
    std::memcpy(outliers.data(), outlier_bytes.data(), outlier_bytes.size());

  const double tiny = std::numeric_limits<double>::min();
  // One correction code per element, at least one Huffman bit each.
  if (n > codes_span.size() * 8)
    throw StreamError("isabela: dims exceed coded stream capacity");
  BitReader pr(perm_span);
  BitReader cr(codes_span);
  HuffmanCoder huff;
  huff.read_table(cr);

  std::vector<T> recon(n);
  std::size_t control_next = 0, outlier_next = 0;
  std::vector<std::uint32_t> order;
  for (std::size_t w0 = 0; w0 < n; w0 += W) {
    const std::size_t len = std::min<std::size_t>(W, n - w0);
    const unsigned pbits = bits_for(len);
    order.resize(len);
    for (std::size_t j = 0; j < len; ++j)
      order[j] = static_cast<std::uint32_t>(pr.read_bits(pbits));

    std::size_t nc = num_controls<T>(len, control_every);
    if (control_next + nc > controls_all.size())
      throw StreamError("isabela: control stream exhausted");
    std::vector<T> controls(controls_all.begin() +
                                static_cast<std::ptrdiff_t>(control_next),
                            controls_all.begin() +
                                static_cast<std::ptrdiff_t>(control_next + nc));
    control_next += nc;

    for (std::size_t j = 0; j < len; ++j) {
      std::uint32_t code = huff.decode(cr);
      T value;
      if (code == 0) {
        if (outlier_next >= outliers.size())
          throw StreamError("isabela: outlier stream exhausted");
        value = outliers[outlier_next++];
      } else {
        double f = fit_at(controls, control_every, len, j);
        double bin = br * std::max(std::abs(f), tiny);
        auto q = static_cast<std::int64_t>(code) -
                 static_cast<std::int64_t>(kRadius);
        value = narrow_to<T>(f + bin * static_cast<double>(q));
      }
      if (order[j] >= len) throw StreamError("isabela: bad permutation");
      recon[w0 + order[j]] = value;
    }
  }
  return recon;
}

template std::vector<std::uint8_t> compress<float>(std::span<const float>,
                                                   Dims, const Params&);
template std::vector<std::uint8_t> compress<double>(std::span<const double>,
                                                    Dims, const Params&);
template std::vector<float> decompress<float>(std::span<const std::uint8_t>,
                                              Dims*);
template std::vector<double> decompress<double>(std::span<const std::uint8_t>,
                                                Dims*);

}  // namespace isabela
}  // namespace transpwr
