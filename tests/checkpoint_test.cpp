// Framed checkpoint file tests (src/fastppr/store/checkpoint.{h,cc}).
// A checkpoint reaches its final name only via atomic rename, so unlike
// the WAL there is no torn-tail tolerance: ANY deviation — truncation,
// wrong magic, length mismatch, any single flipped bit — must be loud
// Corruption.

#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/store/arena_io.h"
#include "fastppr/store/checkpoint.h"
#include "fastppr/util/file_io.h"

namespace fastppr {
namespace {

std::vector<uint8_t> MakeBody() {
  std::vector<uint8_t> body(257);
  std::iota(body.begin(), body.end(), 0);
  return body;
}

TEST(CheckpointTest, RoundTrips) {
  const std::string path = testing::TempDir() + "/ckpt_rt.fppr";
  const std::vector<uint8_t> body = MakeBody();
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, body).ok());

  std::vector<uint8_t> read;
  const Status s = ReadFramedFile(path, kCheckpointMagic, &read);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(read, body);
  // The tmp staging file must not survive a successful write.
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(CheckpointTest, EmptyBodyRoundTrips) {
  const std::string path = testing::TempDir() + "/ckpt_empty.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, {}).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(ReadFramedFile(path, kCheckpointMagic, &read).ok());
  EXPECT_TRUE(read.empty());
}

TEST(CheckpointTest, OverwriteReplacesAtomically) {
  const std::string path = testing::TempDir() + "/ckpt_overwrite.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, {1, 2, 3}).ok());
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, {9, 9}).ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(ReadFramedFile(path, kCheckpointMagic, &read).ok());
  EXPECT_EQ(read, (std::vector<uint8_t>{9, 9}));
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  std::vector<uint8_t> read;
  const Status s = ReadFramedFile(testing::TempDir() + "/ckpt_nope.fppr",
                                  kCheckpointMagic, &read);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST(CheckpointTest, WrongMagicIsCorruption) {
  const std::string path = testing::TempDir() + "/ckpt_magic.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, MakeBody()).ok());
  std::vector<uint8_t> read;
  const Status s = ReadFramedFile(path, kCheckpointMagic ^ 1, &read);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CheckpointTest, AnotherVersionIsCorruption) {
  // An intact file of another layout version — valid magic, length and
  // body CRC — must be refused, not misparsed: the version field sits
  // outside the body CRC, so only the version check can catch it.
  const std::string path = testing::TempDir() + "/ckpt_version.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, MakeBody()).ok());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  const uint32_t other = 2;
  ASSERT_NE(other, kCheckpointVersion);
  std::memcpy(bytes.data() + sizeof(uint64_t), &other, sizeof(other));
  {
    WritableFile f;
    ASSERT_TRUE(WritableFile::Open(path, &f).ok());
    ASSERT_TRUE(f.Append(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(f.Close().ok());
  }
  std::vector<uint8_t> read;
  const Status s = ReadFramedFile(path, kCheckpointMagic, &read);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("unsupported version"), std::string::npos)
      << s.ToString();
}

TEST(CheckpointTest, EveryTruncationIsCorruption) {
  const std::string path = testing::TempDir() + "/ckpt_trunc.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, MakeBody()).ok());
  std::vector<uint8_t> full;
  ASSERT_TRUE(ReadFileBytes(path, &full).ok());

  const std::string cut = testing::TempDir() + "/ckpt_trunc_cut.fppr";
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    {
      WritableFile f;
      ASSERT_TRUE(WritableFile::Open(cut, &f).ok());
      ASSERT_TRUE(f.Append(full.data(), keep).ok());
      ASSERT_TRUE(f.Close().ok());
    }
    std::vector<uint8_t> read;
    const Status s = ReadFramedFile(cut, kCheckpointMagic, &read);
    ASSERT_TRUE(s.IsCorruption())
        << "truncated to " << keep << ": " << s.ToString();
  }
}

// The satellite-c oracle for the checkpoint side: any single flipped
// bit anywhere in the file is Corruption.
TEST(CheckpointTest, EveryBitFlipIsCorruption) {
  const std::string path = testing::TempDir() + "/ckpt_flip.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, MakeBody()).ok());
  std::vector<uint8_t> full;
  ASSERT_TRUE(ReadFileBytes(path, &full).ok());

  const std::string flipped = testing::TempDir() + "/ckpt_flip_cut.fppr";
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> copy = full;
      copy[byte] ^= static_cast<uint8_t>(1u << bit);
      {
        WritableFile f;
        ASSERT_TRUE(WritableFile::Open(flipped, &f).ok());
        ASSERT_TRUE(f.Append(copy.data(), copy.size()).ok());
        ASSERT_TRUE(f.Close().ok());
      }
      std::vector<uint8_t> read;
      const Status s = ReadFramedFile(flipped, kCheckpointMagic, &read);
      ASSERT_TRUE(s.IsCorruption())
          << "bit " << bit << " of byte " << byte << ": " << s.ToString();
    }
  }
}

/// A SaveTo-shaped chain: small fields, an empty run and runs larger
/// than the sink's 1 MiB staging buffer, which go to the file straight
/// from their vectors. Not inlined: GCC 12 misreads the ArenaWriter's
/// growth when it sees these sizes as constants.
template <typename Sink>
[[gnu::noinline]] void SaveColumns(Sink* w, const std::vector<uint64_t>& big,
                                   const std::vector<uint16_t>& small) {
  w->Pod(uint32_t{0xABCD});
  w->Span(std::span<const uint16_t>(small));
  w->Span(std::span<const uint64_t>(big));
  w->Pod(uint8_t{5});
  w->Span(std::span<const uint8_t>());
  w->Span(std::span<const uint64_t>(big));
  w->Pod(uint64_t{42});
}

// The chain streams into exactly the bytes an ArenaWriter collects in
// memory.
TEST(CheckpointTest, StreamedBodyEqualsArenaWriterBody) {
  std::vector<uint64_t> big((std::size_t{3} << 20) / sizeof(uint64_t) + 3);
  std::iota(big.begin(), big.end(), uint64_t{7});
  std::vector<uint16_t> small(1000);
  std::iota(small.begin(), small.end(), uint16_t{1});
  ArenaWriter oracle;
  SaveColumns(&oracle, big, small);

  const std::string path = testing::TempDir() + "/ckpt_stream.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic,
                              [&](FramedFileSink* sink) {
                                SaveColumns(sink, big, small);
                              })
                  .ok());
  std::vector<uint8_t> read;
  ASSERT_TRUE(ReadFramedFile(path, kCheckpointMagic, &read).ok());
  EXPECT_EQ(read, oracle.buffer());
}

// A write error halfway into a column fails the write and leaves the
// previous file named `path` in place.
TEST(CheckpointTest, FailedWriteKeepsThePreviousFile) {
  const std::string path = testing::TempDir() + "/ckpt_fail.fppr";
  ASSERT_TRUE(WriteFramedFile(path, kCheckpointMagic, MakeBody()).ok());

  const std::vector<uint8_t> big(std::size_t{3} << 20, 0x5A);
  SetFailAfterBytesForTesting(24 + (int64_t{3} << 19));
  const Status s = WriteFramedFile(path, kCheckpointMagic, big);
  SetFailAfterBytesForTesting(-1);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  std::vector<uint8_t> read;
  ASSERT_TRUE(ReadFramedFile(path, kCheckpointMagic, &read).ok());
  EXPECT_EQ(read, MakeBody());
}

}  // namespace
}  // namespace fastppr
