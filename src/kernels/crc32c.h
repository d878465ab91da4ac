// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78; the
// iSCSI checksum of RFC 3720) — the TPRQ1 wire's body checksum. kGeneric
// runs slicing-by-8 tables; kNative runs the SSE4.2 `crc32` instruction
// over three interleaved lanes when the CPU has it. Both return the same
// digest for every input; only throughput differs.
#ifndef TRANSPWR_KERNELS_CRC32C_H_
#define TRANSPWR_KERNELS_CRC32C_H_

#include <cstdint>
#include <span>

namespace transpwr {
namespace kernels {

// CRC32C of `bytes`, continuing from `crc`, the digest of the bytes before
// them (0 for none): crc32c(b, crc32c(a)) == crc32c(a ++ b).
std::uint32_t crc32c(std::span<const std::uint8_t> bytes,
                     std::uint32_t crc = 0);

}  // namespace kernels
}  // namespace transpwr

#endif  // TRANSPWR_KERNELS_CRC32C_H_
