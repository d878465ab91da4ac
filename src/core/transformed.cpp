#include "core/transformed.h"

#include <cmath>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/error.h"
#include "lossless/lossless.h"
#include "obs/obs.h"
#include "lossless/rle.h"
#include "sz/interp.h"
#include "sz/sz.h"
#include "zfp/zfp.h"

namespace transpwr {
namespace {

constexpr std::uint32_t kMagic = 0x31545254;  // "TRT1"

/// The exp path that inverts a payload stamped with `log_kernel`.
LogExpPath exp_path_for(std::uint8_t log_kernel) {
  return log_kernel == 1 ? LogExpPath::kFastKernel : LogExpPath::kLegacyLibm;
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> transformed_compress(
    std::span<const T> data, Dims dims, InnerCodec codec,
    const TransformedParams& p, std::vector<T>* reconstruction) {
  dims.validate();
  if (data.size() != dims.count())
    throw ParamError("transformed: data size does not match dims");
  if (reconstruction && codec == InnerCodec::kZfp)
    throw ParamError("transformed: ZFP has no encoder reconstruction");

  obs::Span root_span("transformed.compress");

  // --- preprocessing: log map + sign compression (Algorithm 1 lines 1-17).
  TransformResult<T> tr;
  std::vector<std::uint8_t> sign_bytes;
  {
    obs::Span pre_span("pre");
    tr = log_forward<T>(data, p.rel_bound, p.log_base, p.threads);
    if (!tr.negative.empty()) {
      BitWriter bw;
      rle::encode_bits(tr.negative, bw);
      auto raw = bw.take();
      sign_bytes = lossless::compress(raw, p.threads);
    }
  }

  // --- inner absolute-error-bounded compression (line 18).
  std::vector<std::uint8_t> inner;
  {
    obs::Span inner_span("inner");
    if (codec == InnerCodec::kSz) {
      sz::Params sp;
      sp.mode = sz::Mode::kAbs;
      sp.bound = tr.adjusted_abs_bound;
      sp.threads = p.threads;
      inner = sz::compress<T>(tr.mapped, dims, sp, reconstruction);
    } else if (codec == InnerCodec::kSzInterp) {
      sz_interp::Params ip;
      ip.bound = tr.adjusted_abs_bound;
      ip.threads = p.threads;
      inner = sz_interp::compress<T>(tr.mapped, dims, ip, reconstruction);
    } else {
      zfp::Params zp;
      zp.mode = zfp::Mode::kAccuracy;
      zp.tolerance = tr.adjusted_abs_bound;
      inner = zfp::compress<T>(tr.mapped, dims, zp);
    }
  }

  // The inner codec left its log-domain reconstruction in
  // `reconstruction`; the decoder's inverse, with the stream's own
  // parameters, turns it into what transformed_decompress() returns.
  if (reconstruction) {
    obs::Span post_span("post");
    log_inverse_into<T>(*reconstruction, tr.negative, p.log_base,
                        tr.zero_threshold, *reconstruction, p.threads,
                        exp_path_for(log_kernel_version<T>()));
  }

  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(data_type_of<T>()));
  out.put(static_cast<std::uint8_t>(codec));
  out.put(static_cast<std::uint8_t>(tr.negative.empty() ? 0 : 1));
  // The byte that was reserved (always 0) through v1 now records which log
  // kernel produced the mapped payload, so the decoder can exponentiate
  // with the exact inverse: 0 = libm LogKernel, 1 = kernels::fast_*.
  out.put(log_kernel_version<T>());
  out.put(p.log_base);
  out.put(tr.zero_threshold);
  out.put_sized(sign_bytes);
  out.put_sized(inner);
  return out.take();
}

template <typename T>
std::vector<T> transformed_decompress(std::span<const std::uint8_t> stream,
                                      Dims* dims_out, std::size_t threads) {
  obs::Span root_span("transformed.decompress");
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw StreamError("transformed: bad magic");
  auto dtype = static_cast<DataType>(in.get<std::uint8_t>());
  if (dtype != data_type_of<T>())
    throw StreamError("transformed: stream data type does not match");
  std::uint8_t codec_byte = in.get<std::uint8_t>();
  if (codec_byte > static_cast<std::uint8_t>(InnerCodec::kSzInterp))
    throw StreamError("transformed: unknown inner codec byte");
  auto codec = static_cast<InnerCodec>(codec_byte);
  bool has_signs = in.get<std::uint8_t>() != 0;
  std::uint8_t log_kernel = in.get<std::uint8_t>();
  if (log_kernel > 1)
    throw StreamError("transformed: unknown log kernel version");
  double base = in.get<double>();
  double zero_threshold = in.get<double>();
  // The base feeds the inverse exponential; the encoder only ever writes
  // finite bases > 1 (log_forward validates them).
  if (!(base > 1.0) || !std::isfinite(base))
    throw StreamError("transformed: bad log base in stream header");
  auto sign_bytes = in.get_sized();
  auto inner = in.get_sized();

  Dims dims;
  std::vector<T> mapped;
  {
    obs::Span inner_span("inner");
    if (codec == InnerCodec::kSz)
      mapped = sz::decompress<T>(inner, &dims, threads);
    else if (codec == InnerCodec::kSzInterp)
      mapped = sz_interp::decompress<T>(inner, &dims, threads);
    else
      mapped = zfp::decompress<T>(inner, &dims);
  }
  if (dims_out) *dims_out = dims;

  // --- postprocessing: sign decompression + inverse map.
  obs::Span post_span("post");
  Bitmap negative;
  if (has_signs) {
    auto raw = lossless::decompress(sign_bytes, threads);
    BitReader br(raw);
    negative = rle::decode_bits(br);
    // log_inverse_into refuses a mismatched bitmap as a caller error; here
    // it can only come from a corrupt stream.
    if (negative.size() != mapped.size())
      throw StreamError("transformed: sign bitmap size does not match payload");
  }
  log_inverse_into<T>(mapped, negative, base, zero_threshold, mapped,
                      threads, exp_path_for(log_kernel));
  return mapped;
}

template std::vector<std::uint8_t> transformed_compress<float>(
    std::span<const float>, Dims, InnerCodec, const TransformedParams&,
    std::vector<float>*);
template std::vector<std::uint8_t> transformed_compress<double>(
    std::span<const double>, Dims, InnerCodec, const TransformedParams&,
    std::vector<double>*);
template std::vector<float> transformed_decompress<float>(
    std::span<const std::uint8_t>, Dims*, std::size_t);
template std::vector<double> transformed_decompress<double>(
    std::span<const std::uint8_t>, Dims*, std::size_t);

}  // namespace transpwr
