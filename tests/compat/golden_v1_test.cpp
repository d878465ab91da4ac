// Backward compatibility: the committed v1 bitstreams under
// tests/data/golden/ were produced by the pre-blocked-entropy encoders
// (before the codes-format byte grew its `blocked` bit and lossless grew
// method 2). Every decoder must keep accepting them bit-exactly; the
// expected values are FNV-1a checksums of the decoded payload recorded when
// the streams were generated.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/types.h"
#include "core/transformed.h"
#include "kernels/dispatch.h"
#include "lossless/lossless.h"
#include "sz/interp.h"
#include "sz/sz.h"

namespace transpwr {
namespace {

std::vector<std::uint8_t> load(const std::string& name) {
  const std::string path = std::string(TRANSPWR_GOLDEN_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) ADD_FAILURE() << "missing golden stream " << path;
  if (!f) return {};
  std::fseek(f, 0, SEEK_END);
  auto size = static_cast<std::size_t>(std::ftell(f));
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(size);
  if (std::fread(bytes.data(), 1, size, f) != size) bytes.clear();
  std::fclose(f);
  return bytes;
}

template <typename T>
std::uint64_t payload_fnv(const std::vector<T>& v) {
  return fnv1a64({reinterpret_cast<const std::uint8_t*>(v.data()),
                  v.size() * sizeof(T)});
}

// Runs `decode` under each kernel dispatch in-process: the SZ decode sweep
// takes its native interior runs on pure-Lorenzo v1 streams too.
template <typename Decode>
void under_both_dispatches(Decode&& decode) {
  for (auto d : {kernels::Dispatch::kGeneric, kernels::Dispatch::kNative}) {
    SCOPED_TRACE(kernels::name(d));
    kernels::ScopedDispatch scoped(d);
    decode();
  }
}

TEST(GoldenV1, SzAbsFloat) {
  auto stream = load("sz_abs_f32.v1");
  ASSERT_FALSE(stream.empty());
  under_both_dispatches([&] {
    Dims dims;
    auto out = sz::decompress<float>(stream, &dims);
    EXPECT_EQ(dims, Dims(37, 21));
    EXPECT_EQ(payload_fnv(out), 0xae7cfbeca74f8113ULL);
  });
}

TEST(GoldenV1, SzPwrBlockDouble) {
  auto stream = load("sz_pwr_f64.v1");
  ASSERT_FALSE(stream.empty());
  under_both_dispatches([&] {
    Dims dims;
    auto out = sz::decompress<double>(stream, &dims);
    EXPECT_EQ(dims, Dims(700));
    EXPECT_EQ(payload_fnv(out), 0xb310478236a4ef9eULL);
  });
}

TEST(GoldenV1, SzAutoPredictorFloat) {
  auto stream = load("sz_auto_f32.v1");
  ASSERT_FALSE(stream.empty());
  under_both_dispatches([&] {
    Dims dims;
    auto out = sz::decompress<float>(stream, &dims);
    EXPECT_EQ(dims, Dims(12, 10, 14));
    EXPECT_EQ(payload_fnv(out), 0x0d34a0fa70f7aaedULL);
  });
}

TEST(GoldenV1, InterpFloat) {
  auto stream = load("interp_f32.v1");
  ASSERT_FALSE(stream.empty());
  under_both_dispatches([&] {
    Dims dims;
    auto out = sz_interp::decompress<float>(stream, &dims);
    EXPECT_EQ(dims, Dims(17, 9, 11));
    EXPECT_EQ(payload_fnv(out), 0xb9515b936a62cba4ULL);
  });
}

TEST(GoldenV1, LosslessLz77Method1) {
  auto stream = load("lossless_lz77.v1");
  ASSERT_FALSE(stream.empty());
  EXPECT_EQ(stream[0], 1u) << "golden stream should carry method tag 1";
  auto out = lossless::decompress(stream);
  EXPECT_EQ(out.size(), 5000u);
  EXPECT_EQ(payload_fnv(out), 0x85321200e9f5e61eULL);
}

TEST(GoldenV1, SzTransformedFloat) {
  auto stream = load("szt_f32.v1");
  ASSERT_FALSE(stream.empty());
  under_both_dispatches([&] {
    Dims dims;
    auto out = transformed_decompress<float>(stream, &dims);
    EXPECT_EQ(dims, Dims(24, 18));
    EXPECT_EQ(payload_fnv(out), 0x99475ff3285960a5ULL);
  });
}

}  // namespace
}  // namespace transpwr
