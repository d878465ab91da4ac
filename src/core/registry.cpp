#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "core/compressor.h"
#include "core/transformed.h"
#include "fpzip/fpzip.h"
#include "isabela/isabela.h"
#include "obs/obs.h"
#include "sz/sz.h"
#include "zfp/zfp.h"

namespace transpwr {
namespace {

struct SchemeNames {
  const char* name;
  const char* compress_span;
  const char* decompress_span;
};

/// Indexed by Scheme value.
constexpr std::array<SchemeNames, 8> kNames = {{
    {"SZ_ABS", "compress.SZ_ABS", "decompress.SZ_ABS"},
    {"SZ_PWR", "compress.SZ_PWR", "decompress.SZ_PWR"},
    {"SZ_T", "compress.SZ_T", "decompress.SZ_T"},
    {"ZFP_P", "compress.ZFP_P", "decompress.ZFP_P"},
    {"ZFP_T", "compress.ZFP_T", "decompress.ZFP_T"},
    {"FPZIP", "compress.FPZIP", "decompress.FPZIP"},
    {"ISABELA", "compress.ISABELA", "decompress.ISABELA"},
    {"SZI_T", "compress.SZI_T", "decompress.SZI_T"},
}};

constexpr std::array<Scheme, 8> kAllSchemes = {
    Scheme::kSzAbs, Scheme::kSzPwr, Scheme::kSzT,     Scheme::kZfpP,
    Scheme::kZfpT,  Scheme::kFpzip, Scheme::kIsabela, Scheme::kSziT};

std::size_t index_of(Scheme s) { return static_cast<std::size_t>(s); }

sz::Params sz_params(const CompressorParams& p, sz::Mode mode) {
  sz::Params sp;
  sp.mode = mode;
  sp.bound = p.bound;
  return sp;
}

/// ZFP in precision mode (the paper's ZFP_P), with a bound-derived
/// precision close to the paper's hand tuning. Does not strictly respect
/// the relative bound by design.
zfp::Params zfp_p_params(const CompressorParams& p) {
  zfp::Params zp;
  zp.mode = zfp::Mode::kPrecision;
  int bits = static_cast<int>(std::ceil(std::log2(1.0 / p.bound)));
  zp.precision = static_cast<std::uint32_t>(std::max(4, bits + 16));
  return zp;
}

/// The paper's contribution: SZ_T / ZFP_T (and the SZI_T extension).
TransformedParams transformed_params(const CompressorParams& p) {
  TransformedParams tp;
  tp.rel_bound = p.bound;
  tp.log_base = p.log_base;
  return tp;
}

template <typename T>
fpzip::Params fpzip_params(const CompressorParams& p) {
  fpzip::Params fp;
  fp.precision = fpzip::precision_for_rel_bound<T>(p.bound);
  return fp;
}

isabela::Params isabela_params(const CompressorParams& p) {
  isabela::Params ip;
  ip.rel_bound = p.bound;
  return ip;
}

template <typename T>
std::vector<T> decode(Scheme s, std::span<const std::uint8_t> stream,
                      Dims* dims) {
  switch (s) {
    case Scheme::kSzAbs:
    case Scheme::kSzPwr:
      return sz::decompress<T>(stream, dims);
    case Scheme::kSzT:
    case Scheme::kZfpT:
    case Scheme::kSziT:
      return transformed_decompress<T>(stream, dims);
    case Scheme::kZfpP:
      return zfp::decompress<T>(stream, dims);
    case Scheme::kFpzip:
      return fpzip::decompress<T>(stream, dims);
    case Scheme::kIsabela:
      return isabela::decompress<T>(stream, dims);
  }
  throw ParamError("decompress: unknown scheme");
}

/// Schemes without an in-loop reconstruction fill `rec` by decoding the
/// stream they just wrote.
template <typename T>
std::vector<std::uint8_t> with_decoded(Scheme s,
                                       std::vector<std::uint8_t> stream,
                                       std::vector<T>* rec) {
  if (rec) *rec = decode<T>(s, stream, nullptr);
  return stream;
}

/// `rec`, when set, receives exactly what decode() of the returned stream
/// gives: the SZ family's own reconstruction, else a decode.
template <typename T>
std::vector<std::uint8_t> encode(Scheme s, std::span<const T> d, Dims dims,
                                 const CompressorParams& p,
                                 std::vector<T>* rec) {
  switch (s) {
    case Scheme::kSzAbs:
      return sz::compress<T>(d, dims, sz_params(p, sz::Mode::kAbs), rec);
    case Scheme::kSzPwr:
      return sz::compress<T>(d, dims, sz_params(p, sz::Mode::kPwrBlock),
                             rec);
    case Scheme::kSzT:
      return transformed_compress<T>(d, dims, InnerCodec::kSz,
                                     transformed_params(p), rec);
    case Scheme::kZfpP:
      return with_decoded(s, zfp::compress<T>(d, dims, zfp_p_params(p)), rec);
    case Scheme::kZfpT:
      return with_decoded(s,
                          transformed_compress<T>(d, dims, InnerCodec::kZfp,
                                                  transformed_params(p)),
                          rec);
    case Scheme::kFpzip:
      return with_decoded(
          s, fpzip::compress<T>(d, dims, fpzip_params<T>(p)), rec);
    case Scheme::kIsabela:
      return with_decoded(
          s, isabela::compress<T>(d, dims, isabela_params(p)), rec);
    case Scheme::kSziT:
      return transformed_compress<T>(d, dims, InnerCodec::kSzInterp,
                                     transformed_params(p), rec);
  }
  throw ParamError("compress: unknown scheme");
}

std::vector<std::uint8_t> note_compressed(std::size_t in_bytes,
                                          std::vector<std::uint8_t> out) {
  obs::counter_add("codec.bytes_in", in_bytes);
  obs::counter_add("codec.bytes_out", out.size());
  return out;
}

}  // namespace

const char* scheme_name(Scheme s) {
  return index_of(s) < kNames.size() ? kNames[index_of(s)].name : "unknown";
}

Scheme scheme_from_name(const std::string& name) {
  for (Scheme s : kAllSchemes)
    if (name == scheme_name(s)) return s;
  throw ParamError("unknown scheme name: " + name);
}

Compressor::Compressor(Scheme scheme) : scheme_(scheme) {
  if (index_of(scheme) >= kNames.size())
    throw ParamError("make_compressor: unknown scheme");
}

std::vector<std::uint8_t> Compressor::compress(
    std::span<const float> d, Dims dims, const CompressorParams& p,
    std::vector<float>* reconstruction) {
  obs::Span span(kNames[index_of(scheme_)].compress_span);
  return note_compressed(d.size_bytes(),
                         encode(scheme_, d, dims, p, reconstruction));
}

std::vector<std::uint8_t> Compressor::compress(
    std::span<const double> d, Dims dims, const CompressorParams& p,
    std::vector<double>* reconstruction) {
  obs::Span span(kNames[index_of(scheme_)].compress_span);
  return note_compressed(d.size_bytes(),
                         encode(scheme_, d, dims, p, reconstruction));
}

std::vector<float> Compressor::decompress_f32(std::span<const std::uint8_t> s,
                                              Dims* dims) {
  obs::Span span(kNames[index_of(scheme_)].decompress_span);
  return decode<float>(scheme_, s, dims);
}

std::vector<double> Compressor::decompress_f64(
    std::span<const std::uint8_t> s, Dims* dims) {
  obs::Span span(kNames[index_of(scheme_)].decompress_span);
  return decode<double>(scheme_, s, dims);
}

std::unique_ptr<Compressor> make_compressor(Scheme scheme) {
  return std::make_unique<Compressor>(scheme);
}

std::span<const Scheme> all_schemes() { return kAllSchemes; }

}  // namespace transpwr
