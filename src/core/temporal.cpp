#include "core/temporal.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/error.h"
#include "lossless/lossless.h"
#include "lossless/rle.h"
#include "sz/sz.h"
#include "zfp/zfp.h"

namespace transpwr {
namespace {

constexpr std::uint32_t kMagic = 0x31504D54;  // "TMP1"

std::vector<std::uint8_t> inner_compress(InnerCodec codec,
                                         std::span<const float> data,
                                         Dims dims, double abs_bound) {
  if (codec == InnerCodec::kSz) {
    sz::Params sp;
    sp.bound = abs_bound;
    return sz::compress<float>(data, dims, sp);
  }
  zfp::Params zp;
  zp.tolerance = abs_bound;
  return zfp::compress<float>(data, dims, zp);
}

std::vector<float> inner_decompress(InnerCodec codec,
                                    std::span<const std::uint8_t> stream,
                                    Dims* dims) {
  return codec == InnerCodec::kSz ? sz::decompress<float>(stream, dims)
                                  : zfp::decompress<float>(stream, dims);
}

// Extra absolute-bound margin for the delta path: forming the float delta
// and re-adding the reconstructed delta each cost up to one ulp of the
// log-domain magnitudes involved (which include the zero sentinels).
double delta_guard(double max_abs_log, double zero_threshold) {
  double m = std::max(max_abs_log,
                      std::abs(zero_threshold) + 1.0);
  return 3.0 * m * static_cast<double>(
                       std::numeric_limits<float>::epsilon());
}

}  // namespace

TemporalCompressor::TemporalCompressor(InnerCodec codec,
                                       TransformedParams params)
    : codec_(codec), params_(params) {}

void TemporalCompressor::reset() {
  prev_mapped_.clear();
  snapshots_ = 0;
}

std::vector<std::uint8_t> TemporalCompressor::compress_snapshot(
    std::span<const float> data, Dims dims) {
  dims.validate();
  if (data.size() != dims.count())
    throw ParamError("temporal: data size does not match dims");
  if (snapshots_ == 0) {
    dims_ = dims;
  } else if (!(dims == dims_)) {
    throw ParamError("temporal: snapshot shape changed mid-sequence");
  }

  auto tr = log_forward<float>(data, params_.rel_bound, params_.log_base);
  const bool keyframe = snapshots_ == 0;

  double bound = tr.adjusted_abs_bound;
  std::vector<float> payload;
  if (keyframe) {
    payload = tr.mapped;
  } else {
    bound -= delta_guard(tr.max_abs_log, tr.zero_threshold);
    if (!(bound > 0))
      throw ParamError("temporal: bound too tight for the delta path");
    payload.resize(tr.mapped.size());
    for (std::size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<float>(static_cast<double>(tr.mapped[i]) -
                                      static_cast<double>(prev_mapped_[i]));
  }

  auto inner = inner_compress(codec_, payload, dims, bound);

  // Advance encoder state to the decoder's reconstruction.
  Dims got;
  auto recon = inner_decompress(codec_, inner, &got);
  if (keyframe) {
    prev_mapped_ = std::move(recon);
  } else {
    for (std::size_t i = 0; i < recon.size(); ++i)
      prev_mapped_[i] = static_cast<float>(
          static_cast<double>(prev_mapped_[i]) +
          static_cast<double>(recon[i]));
  }
  ++snapshots_;

  std::vector<std::uint8_t> sign_bytes;
  if (!tr.negative.empty()) {
    BitWriter bw;
    rle::encode_bits(tr.negative, bw);
    auto raw = bw.take();
    sign_bytes = lossless::compress(raw);
  }

  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(DataType::kFloat32));
  out.put(static_cast<std::uint8_t>(codec_));
  out.put(static_cast<std::uint8_t>(keyframe ? 0 : 1));
  out.put(static_cast<std::uint8_t>(tr.negative.empty() ? 0 : 1));
  out.put(params_.log_base);
  out.put(tr.zero_threshold);
  out.put_sized(sign_bytes);
  out.put_sized(inner);
  return out.take();
}

void TemporalDecompressor::reset() {
  prev_mapped_.clear();
  snapshots_ = 0;
}

std::vector<float> TemporalDecompressor::decompress_snapshot(
    std::span<const std::uint8_t> stream, Dims* dims_out) {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw StreamError("temporal: bad magic");
  if (static_cast<DataType>(in.get<std::uint8_t>()) != DataType::kFloat32)
    throw StreamError("temporal: unsupported data type");
  auto codec = static_cast<InnerCodec>(in.get<std::uint8_t>());
  bool is_delta = in.get<std::uint8_t>() != 0;
  bool has_signs = in.get<std::uint8_t>() != 0;
  double base = in.get<double>();
  double zero_threshold = in.get<double>();
  auto sign_bytes = in.get_sized();
  auto inner = in.get_sized();

  if (is_delta && snapshots_ == 0)
    throw StreamError("temporal: delta stream before a keyframe");

  Dims dims;
  auto recon = inner_decompress(codec, inner, &dims);
  if (is_delta) {
    if (!(dims == dims_) || recon.size() != prev_mapped_.size())
      throw StreamError("temporal: delta shape mismatch");
    for (std::size_t i = 0; i < recon.size(); ++i)
      recon[i] = static_cast<float>(static_cast<double>(prev_mapped_[i]) +
                                    static_cast<double>(recon[i]));
  } else {
    dims_ = dims;
  }
  prev_mapped_ = recon;
  ++snapshots_;
  if (dims_out) *dims_out = dims;

  Bitmap negative;
  if (has_signs) {
    auto raw = lossless::decompress(sign_bytes);
    BitReader br(raw);
    negative = rle::decode_bits(br);
  }
  return log_inverse<float>(recon, negative, base, zero_threshold);
}

}  // namespace transpwr
