#ifndef FASTPPR_UTIL_CRC32C_H_
#define FASTPPR_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace fastppr {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum guarding every WAL record and checkpoint body in the
/// durability layer (store/wal.h, store/checkpoint.h). Castagnoli is
/// chosen over CRC-32 for its better burst-error detection and because
/// it is the storage-industry standard (iSCSI, ext4, RocksDB), so the
/// on-disk artifacts stay checkable by external tooling.

/// Extends `crc` (the running CRC of all prior bytes, 0 for the first
/// chunk) over `data[0, n)`. Streaming-composable:
///   Crc32c(ab) == ExtendCrc32c(Crc32c(a), b).
uint32_t ExtendCrc32c(uint32_t crc, const void* data, std::size_t n);

/// CRC-32C of one contiguous buffer.
inline uint32_t Crc32c(const void* data, std::size_t n) {
  return ExtendCrc32c(0, data, n);
}

/// ExtendCrc32c through the portable slice-by-8 table loop, which
/// ExtendCrc32c itself runs only on CPUs without SSE4.2 (on x86-64 it
/// picks the crc32 instruction at run time). For tests that check the
/// two loops agree.
uint32_t ExtendCrc32cSoftwareForTesting(uint32_t crc, const void* data,
                                        std::size_t n);

}  // namespace fastppr

#endif  // FASTPPR_UTIL_CRC32C_H_
