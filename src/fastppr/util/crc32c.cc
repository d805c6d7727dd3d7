#include "fastppr/util/crc32c.h"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace fastppr {

namespace {

/// Slice-by-8 lookup tables, generated at compile time. Table 0 is the
/// classic byte-at-a-time table; table k folds a byte that sits k
/// positions ahead of the current CRC window.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 8> t{};
};

constexpr Crc32cTables BuildTables() {
  Crc32cTables tables;
  constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables.t[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      crc = tables.t[0][crc & 0xFF] ^ (crc >> 8);
      tables.t[k][i] = crc;
    }
  }
  return tables;
}

constexpr Crc32cTables kTables = BuildTables();

uint32_t SoftwareExtend(uint32_t crc, const unsigned char* p,
                        std::size_t n) {
  while (n >= 8) {
    const uint32_t low = crc ^ (static_cast<uint32_t>(p[0]) |
                                static_cast<uint32_t>(p[1]) << 8 |
                                static_cast<uint32_t>(p[2]) << 16 |
                                static_cast<uint32_t>(p[3]) << 24);
    crc = kTables.t[7][low & 0xFF] ^ kTables.t[6][(low >> 8) & 0xFF] ^
          kTables.t[5][(low >> 16) & 0xFF] ^ kTables.t[4][low >> 24] ^
          kTables.t[3][p[4]] ^ kTables.t[2][p[5]] ^ kTables.t[1][p[6]] ^
          kTables.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
// Compiled for SSE4.2 whatever the build's -m flags, and called only
// where the CPU reports SSE4.2 (SelectExtend).
__attribute__((target("sse4.2"))) uint32_t HardwareExtend(
    uint32_t crc, const unsigned char* p, std::size_t n) {
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return c32;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const unsigned char*, std::size_t);

ExtendFn SelectExtend() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return HardwareExtend;
#endif
  return SoftwareExtend;
}

}  // namespace

uint32_t ExtendCrc32c(uint32_t crc, const void* data, std::size_t n) {
  static const ExtendFn extend = SelectExtend();
  // Pre/post-invert so an all-zero buffer does not checksum to zero and
  // appended zero bytes change the value (the usual CRC finalization).
  return ~extend(~crc, static_cast<const unsigned char*>(data), n);
}

uint32_t ExtendCrc32cSoftwareForTesting(uint32_t crc, const void* data,
                                        std::size_t n) {
  return ~SoftwareExtend(~crc, static_cast<const unsigned char*>(data), n);
}

}  // namespace fastppr
