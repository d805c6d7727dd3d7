// The size-class block pool behind the walk rows and the frozen row
// versions (store/block_pool.h): class rounding, LIFO reuse of freed
// blocks, requests past the last class (freed by the pool when it dies
// with them still allocated), chunk carving, poisoned free blocks under
// AddressSanitizer, and held bytes that stop growing once a churning row
// table's free lists cover its peak.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/graph/types.h"
#include "fastppr/store/block_pool.h"
#include "fastppr/store/segment_snapshot.h"

#if defined(__SANITIZE_ADDRESS__)
#define BLOCK_POOL_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BLOCK_POOL_TEST_ASAN 1
#endif
#endif
#ifdef BLOCK_POOL_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace fastppr {
namespace {

using slab::BlockPool;

TEST(BlockPoolTest, ClassRoundingIsTightAndMonotone) {
  EXPECT_EQ(BlockPool::ClassFor(1), 0u);
  EXPECT_EQ(BlockPool::ClassBytes(0), 16u);
  EXPECT_EQ(BlockPool::ClassBytes(BlockPool::ClassFor(36)), 48u);  // 5 ids
  EXPECT_EQ(BlockPool::ClassBytes(BlockPool::ClassFor(257)), 320u);
  for (uint32_t c = 1; c < BlockPool::kNumClasses; ++c) {
    EXPECT_GT(BlockPool::ClassBytes(c), BlockPool::ClassBytes(c - 1));
  }
  for (std::size_t bytes = 1; bytes <= BlockPool::kMaxBlockBytes; ++bytes) {
    const uint32_t cls = BlockPool::ClassFor(bytes);
    ASSERT_LT(cls, BlockPool::kNumClasses) << bytes;
    const std::size_t block = BlockPool::ClassBytes(cls);
    // The smallest class that fits: the one below does not.
    ASSERT_GE(block, bytes) << bytes;
    if (cls > 0) {
      ASSERT_LT(BlockPool::ClassBytes(cls - 1), bytes) << bytes;
    }
    ASSERT_EQ(block % BlockPool::kGrain, 0u) << bytes;
    // One grain of slack up to 256 bytes, at most 25% above.
    if (bytes <= 256) {
      ASSERT_LT(block - bytes, BlockPool::kGrain) << bytes;
    } else {
      ASSERT_LE(4 * block, 5 * bytes) << bytes;
    }
  }
}

TEST(BlockPoolTest, FreedBlocksAreReusedLastInFirstOut) {
  BlockPool pool;
  void* a = pool.Allocate(40);
  void* b = pool.Allocate(44);  // same 48-byte class
  void* c = pool.Allocate(48);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 16, 0u);
  EXPECT_EQ(pool.live_bytes(), 40u + 44u + 48u);
  EXPECT_EQ(pool.held_bytes(), BlockPool::kChunkBytes);
  pool.Free(a, 40);
  pool.Free(b, 44);
  EXPECT_EQ(pool.live_bytes(), 48u);
  // Another class does not take them.
  void* other = pool.Allocate(100);
  EXPECT_NE(other, a);
  EXPECT_NE(other, b);
  // The last freed block comes back first.
  EXPECT_EQ(pool.Allocate(33), b);
  EXPECT_EQ(pool.Allocate(48), a);
  void* fresh = pool.Allocate(48);
  EXPECT_NE(fresh, a);
  EXPECT_NE(fresh, b);
  EXPECT_NE(fresh, c);
  EXPECT_EQ(pool.held_bytes(), BlockPool::kChunkBytes);
  pool.Free(fresh, 48);
  pool.Free(other, 100);
  pool.Free(a, 48);
  pool.Free(b, 33);
  pool.Free(c, 48);
  EXPECT_EQ(pool.live_bytes(), 0u);
  EXPECT_EQ(pool.held_bytes(), BlockPool::kChunkBytes);
}

TEST(BlockPoolTest, RequestsPastTheLastClassBypassThePool) {
  BlockPool pool;
  const std::size_t big = BlockPool::kMaxBlockBytes + 1;
  void* p = pool.Allocate(big);
  // No chunk is carved for it: it is its own allocation, behind its link.
  EXPECT_EQ(pool.held_bytes(), BlockPool::kLinkBytes + big);
  EXPECT_EQ(pool.live_bytes(), big);
  static_cast<char*>(p)[big - 1] = 1;
  pool.Free(p, big);
  EXPECT_EQ(pool.held_bytes(), 0u);
  EXPECT_EQ(pool.live_bytes(), 0u);
  // The largest pooled block is still carved from a chunk.
  void* q = pool.Allocate(BlockPool::kMaxBlockBytes);
  EXPECT_EQ(pool.held_bytes(), BlockPool::kChunkBytes);
  pool.Free(q, BlockPool::kMaxBlockBytes);
}

TEST(BlockPoolTest, DyingPoolFreesTheBlocksPastTheLastClass) {
  // Three blocks past the last class; the middle one is freed, the
  // other two are still allocated when the pool dies, which hands them
  // back to operator delete (LeakSanitizer reports them otherwise).
  const std::size_t sizes[] = {BlockPool::kMaxBlockBytes + 1,
                               3 * BlockPool::kMaxBlockBytes,
                               BlockPool::kChunkBytes + 8};
  BlockPool pool;
  char* blocks[3];
  std::size_t held = 0;
  for (int i = 0; i < 3; ++i) {
    blocks[i] = static_cast<char*>(pool.Allocate(sizes[i]));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(blocks[i]) % 16, 0u);
    std::fill(blocks[i], blocks[i] + sizes[i], static_cast<char>(i + 1));
    held += BlockPool::kLinkBytes + sizes[i];
    EXPECT_EQ(pool.held_bytes(), held);
  }
  pool.Free(blocks[1], sizes[1]);
  held -= BlockPool::kLinkBytes + sizes[1];
  EXPECT_EQ(pool.held_bytes(), held);
  EXPECT_EQ(pool.live_bytes(), sizes[0] + sizes[2]);
  // Unlinking the middle block kept its neighbours intact.
  EXPECT_EQ(blocks[0][sizes[0] - 1], 1);
  EXPECT_EQ(blocks[2][0], 3);
  char* again = static_cast<char*>(pool.Allocate(sizes[1]));
  again[0] = 4;
  pool.Free(blocks[0], sizes[0]);
  EXPECT_EQ(pool.live_bytes(), sizes[1] + sizes[2]);
  EXPECT_EQ(pool.held_bytes(),
            2 * BlockPool::kLinkBytes + sizes[1] + sizes[2]);
}

TEST(BlockPoolTest, CarvesBlocksFromChunksBackToBack) {
  BlockPool pool;
  constexpr std::size_t kBlock = 1024;
  constexpr std::size_t kPerChunk =
      (BlockPool::kChunkBytes - BlockPool::kLinkBytes) / kBlock;
  std::vector<char*> blocks;
  for (std::size_t i = 0; i <= kPerChunk; ++i) {
    blocks.push_back(static_cast<char*>(pool.Allocate(kBlock)));
  }
  for (std::size_t i = 1; i < kPerChunk; ++i) {
    EXPECT_EQ(blocks[i], blocks[i - 1] + kBlock) << i;
  }
  // The first chunk is full; the next block starts the second.
  EXPECT_EQ(pool.held_bytes(), 2 * BlockPool::kChunkBytes);
  for (char* b : blocks) pool.Free(b, kBlock);
  EXPECT_EQ(pool.live_bytes(), 0u);
}

TEST(BlockPoolTest, FreedBlocksArePoisonedUnderAsan) {
#ifndef BLOCK_POOL_TEST_ASAN
  GTEST_SKIP() << "built without AddressSanitizer";
#else
  BlockPool pool;
  char* block = static_cast<char*>(pool.Allocate(64));
  EXPECT_FALSE(__asan_address_is_poisoned(block));
  EXPECT_FALSE(__asan_address_is_poisoned(block + 63));
  // The rest of the chunk is not handed out yet.
  EXPECT_TRUE(__asan_address_is_poisoned(block + 64));
  pool.Free(block, 64);
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  EXPECT_TRUE(__asan_address_is_poisoned(block + 63));
  EXPECT_EQ(pool.Allocate(64), block);
  EXPECT_FALSE(__asan_address_is_poisoned(block + 63));
  pool.Free(block, 64);
#endif
}

TEST(BlockPoolDeathTest, ReaderFollowingAReclaimedVersionTripsAsan) {
#ifndef BLOCK_POOL_TEST_ASAN
  GTEST_SKIP() << "built without AddressSanitizer";
#else
  // A reader pinned at seq 1 that outlived its pin: the seq-1 version
  // went back to the pool when seq 2 reclaimed it, so following the
  // head's `older` link reads a poisoned block.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  VersionedRows rows(1);
  const auto ids = [](std::size_t i) { return static_cast<NodeId>(i); };
  rows.Write(0, 1, 3, ids);
  rows.Write(0, 2, 4, ids);
  rows.Reclaim(2);
  EXPECT_EQ(rows.Row(0, 2).size(), 4u);
  EXPECT_DEATH(rows.Row(0, 1), "use-after-poison");
#endif
}

TEST(BlockPoolTest, HeldBytesFlatAcrossChurnAfterWarmup) {
  // A row table under the service's publish protocol (Reclaim at the
  // oldest pin, Write, Advance): every window rewrites every row, row r
  // at window w with 1 + (r + w) % 32 ids, so each window writes and
  // retires the same mix of classes. Every tenth window a reader pins
  // and holds the pin for three publishes, so retired versions pile up
  // and drain in a fixed cycle. Once the first cycle has set each
  // class's peak, the free lists serve every later version and the pool
  // takes no more chunks.
  constexpr std::size_t kRows = 8192;
  VersionedRows rows(kRows);
  PublishPins pins;
  PublishPins::Pin pin;
  bool pinned = false;
  std::size_t held_after_warmup = 0;
  std::size_t live_peak = 0;
  for (uint64_t w = 1; w <= 100; ++w) {
    if (w % 10 == 0) {
      pin = pins.Acquire();
      pinned = true;
    }
    rows.Reclaim(pins.Oldest());
    for (uint64_t r = 0; r < kRows; ++r) {
      const std::size_t len = 1 + (r + w) % 32;
      rows.Write(r, w, len, [r](std::size_t i) {
        return static_cast<NodeId>(r + i);
      });
    }
    pins.Advance(PublishPins::Pin{w, w});
    if (pinned && w % 10 == 3) {
      pins.Release(pin);
      pinned = false;
    }
    live_peak = std::max(live_peak, rows.pool().live_bytes());
    if (w == 20) held_after_warmup = rows.pool().held_bytes();
    if (w > 20) {
      ASSERT_EQ(rows.pool().held_bytes(), held_after_warmup)
          << "window " << w << " took another chunk";
    }
  }
  // The pool holds several chunks, and not much more than the peak of
  // live versions (class rounding, one chunk's tail).
  EXPECT_GE(held_after_warmup, 3 * BlockPool::kChunkBytes);
  EXPECT_GE(held_after_warmup, live_peak);
  EXPECT_LE(held_after_warmup, live_peak + live_peak / 4 +
                                   BlockPool::kChunkBytes);
  const auto row = rows.Row(5, 100);
  ASSERT_EQ(row.size(), 1 + (5 + 100) % 32);
  EXPECT_EQ(row[0], 5u);
}

}  // namespace
}  // namespace fastppr
