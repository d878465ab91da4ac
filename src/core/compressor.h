#ifndef TRANSPWR_CORE_COMPRESSOR_H
#define TRANSPWR_CORE_COMPRESSOR_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace transpwr {

/// The eight compression schemes: the seven the paper evaluates (Sec. VI)
/// plus the SZI_T extension.
enum class Scheme : std::uint8_t {
  kSzAbs = 0,    ///< SZ, absolute error bound (comparison point, Figs. 4-5)
  kSzPwr = 1,    ///< SZ blockwise pointwise-relative baseline [12]
  kSzT = 2,      ///< SZ + our log transformation scheme (the paper's pick)
  kZfpP = 3,     ///< ZFP precision mode (approximate pointwise relative)
  kZfpT = 4,     ///< ZFP + our log transformation scheme
  kFpzip = 5,    ///< FPZIP (precision parameter derived from the bound)
  kIsabela = 6,  ///< ISABELA sorting-based baseline
  kSziT = 7,     ///< SZ3-style interpolation + our log transform (extension)
};

const char* scheme_name(Scheme s);
Scheme scheme_from_name(const std::string& name);

/// Scheme-independent knobs. `bound` is the absolute error bound for kSzAbs
/// and the pointwise relative error bound for every other scheme; each
/// scheme derives the rest of its codec's settings from it.
struct CompressorParams {
  double bound = 1e-3;
  double log_base = 2.0;  ///< base for the kSzT / kZfpT / kSziT transform
};

/// Uniform interface over all schemes; streams are self-describing. Each
/// call dispatches on the held scheme, roots a "compress.<NAME>" or
/// "decompress.<NAME>" span, and compress feeds the codec.bytes_in/out
/// counters.
///
/// compress() optionally hands back its `reconstruction`: exactly what
/// decompress_f32/f64 of the returned stream would give, bit for bit. The
/// SZ family (SZ_ABS, SZ_PWR, SZ_T, SZI_T) takes it from the encoder's own
/// reconstruction, with no decode; ZFP_P, ZFP_T, FPZIP and ISABELA decode
/// the stream they just wrote. The stream bytes are the same either way.
class Compressor {
 public:
  /// Throws ParamError for a value outside the Scheme enumerators.
  explicit Compressor(Scheme scheme);
  Scheme scheme() const { return scheme_; }
  std::string name() const { return scheme_name(scheme_); }

  std::vector<std::uint8_t> compress(
      std::span<const float> data, Dims dims, const CompressorParams& p,
      std::vector<float>* reconstruction = nullptr);
  std::vector<std::uint8_t> compress(
      std::span<const double> data, Dims dims, const CompressorParams& p,
      std::vector<double>* reconstruction = nullptr);
  std::vector<float> decompress_f32(std::span<const std::uint8_t> stream,
                                    Dims* dims = nullptr);
  std::vector<double> decompress_f64(std::span<const std::uint8_t> stream,
                                     Dims* dims = nullptr);

 private:
  Scheme scheme_;
};

std::unique_ptr<Compressor> make_compressor(Scheme scheme);

/// All schemes, in the order the paper's tables list them.
std::span<const Scheme> all_schemes();

}  // namespace transpwr

#endif  // TRANSPWR_CORE_COMPRESSOR_H
