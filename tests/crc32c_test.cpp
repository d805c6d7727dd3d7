// CRC-32C tests (src/fastppr/util/crc32c.{h,cc}). Every WAL record and
// checkpoint body is guarded by this checksum, and ExtendCrc32c picks
// its loop at run time (the crc32 instruction where the CPU has SSE4.2,
// the slice-by-8 tables elsewhere), so both loops must give the
// published values and agree with each other on every length,
// alignment and split of a streamed buffer.

#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/util/crc32c.h"

namespace fastppr {
namespace {

uint32_t Software(const void* data, std::size_t n) {
  return ExtendCrc32cSoftwareForTesting(0, data, n);
}

// RFC 3720 (iSCSI) appendix B.4 test vectors.
TEST(Crc32cTest, Rfc3720Vectors) {
  std::array<uint8_t, 32> buf{};
  buf.fill(0x00);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x8A9136AAu);
  EXPECT_EQ(Software(buf.data(), buf.size()), 0x8A9136AAu);

  buf.fill(0xFF);
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x62A8AB43u);
  EXPECT_EQ(Software(buf.data(), buf.size()), 0x62A8AB43u);

  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x46DD794Eu);
  EXPECT_EQ(Software(buf.data(), buf.size()), 0x46DD794Eu);

  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(31 - i);
  }
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), 0x113FDB5Cu);
  EXPECT_EQ(Software(buf.data(), buf.size()), 0x113FDB5Cu);
}

TEST(Crc32cTest, CheckValueAndEmptyInput) {
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(Software(digits, 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(digits, 0), 0u);
  EXPECT_EQ(ExtendCrc32c(0x12345678u, digits, 0), 0x12345678u);
}

// The selected loop equals the table loop for lengths 0-256 at start
// offsets 0-7 (the word loop's alignment and tail), and extending at any
// split point gives the one-shot value.
TEST(Crc32cTest, SelectedLoopMatchesTableLoopAtEveryLengthOffsetAndSplit) {
  std::vector<uint8_t> buf(256 + 8);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint8_t& b : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<uint8_t>(x >> 56);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const uint8_t* p = buf.data() + offset;
      const uint32_t whole = Crc32c(p, len);
      ASSERT_EQ(whole, Software(p, len))
          << "offset " << offset << ", length " << len;
      for (std::size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(ExtendCrc32c(Crc32c(p, split), p + split, len - split),
                  whole)
            << "offset " << offset << ", length " << len << ", split "
            << split;
      }
    }
  }
}

}  // namespace
}  // namespace fastppr
