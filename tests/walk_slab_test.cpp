// The walk stores' rows (store/walk_slab.h): each row is one block of a
// size-class pool; a full row moves to a block of twice its capacity, a
// row left filling a quarter of its block or less moves to one of twice
// its size, and the blocks a move frees are reused. Churned rows hold
// the same words as a std::vector reference, and the pool's live bytes
// are exactly the rows' blocks. Under AddressSanitizer, a span read
// after its row moved trips the pool's poison.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/store/block_pool.h"
#include "fastppr/store/walk_slab.h"
#include "fastppr/util/random.h"

#if defined(__SANITIZE_ADDRESS__)
#define WALK_SLAB_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WALK_SLAB_TEST_ASAN 1
#endif
#endif

namespace fastppr {
namespace {

using slab::BlockPool;
using slab::BlockRows;

/// The bytes of the pool block behind a row of `cap` words.
std::size_t BlockBytes(uint32_t cap) { return std::size_t{cap} * 8; }

/// A row's capacity after a shrinking operation: a row of size 0 holds
/// no block, any other fills more than a quarter of its block.
void ExpectTrimmed(const BlockRows& rows, std::size_t r) {
  if (rows.Size(r) == 0) {
    EXPECT_EQ(rows.Capacity(r), 0u) << "row " << r;
  } else {
    EXPECT_GT(rows.Size(r), rows.Capacity(r) / 4) << "row " << r;
  }
}

TEST(BlockRowsTest, GrowTrimAndReuseMatchAVectorReference) {
  constexpr std::size_t kRows = 16384;
  Rng rng(5);
  std::vector<uint32_t> sizes(kRows);
  for (uint32_t& s : sizes) s = static_cast<uint32_t>(rng.UniformIndex(12));
  BlockPool pool;
  BlockRows rows;
  rows.Reset(&pool, sizes);
  std::vector<std::vector<uint64_t>> ref(kRows);
  uint64_t next_word = 1;
  std::size_t blocks = 0;
  for (std::size_t r = 0; r < kRows; ++r) {
    // Sized once at layout: filling moves no row, and an empty row
    // holds no block.
    const uint32_t cap = rows.Capacity(r);
    EXPECT_EQ(cap == 0, sizes[r] == 0) << "row " << r;
    if (sizes[r] > 0) EXPECT_GE(cap, sizes[r] + sizes[r] / 2 + 2);
    for (uint32_t i = 0; i < sizes[r]; ++i) {
      EXPECT_EQ(rows.PushBack(r, next_word), i);
      ref[r].push_back(next_word++);
    }
    EXPECT_EQ(rows.Capacity(r), cap);
    blocks += BlockBytes(cap);
  }
  EXPECT_EQ(pool.live_bytes(), blocks);

  // Churn with the walk stores' row operations: grow a row, cut it back
  // and trim it (a path row's repair), or swap-remove one of its words
  // (an index row's unregister).
  std::size_t held_mid = 0;
  std::size_t moved_late = 0;  // bytes of the blocks moves took, 2nd half
  constexpr int kSteps = 500000;
  for (int step = 0; step < kSteps; ++step) {
    const std::size_t r = 1 + rng.UniformIndex(kRows - 1);
    const auto size = static_cast<uint32_t>(ref[r].size());
    const uint32_t cap = rows.Capacity(r);
    switch (rng.UniformIndex(3)) {
      case 0:
        for (int i = 0; i < 3; ++i) {
          const uint32_t before = rows.Capacity(r);
          const bool full = rows.Size(r) == before;
          ASSERT_EQ(rows.PushBack(r, next_word), ref[r].size());
          ref[r].push_back(next_word++);
          if (full) {
            // A full row moves to a block of at least twice its capacity.
            ASSERT_GE(rows.Capacity(r), std::max<uint32_t>(2 * before, 2));
          } else {
            ASSERT_EQ(rows.Capacity(r), before);
          }
        }
        break;
      case 1:
        rows.Truncate(r, size / 2);
        ref[r].resize(size / 2);
        ASSERT_EQ(rows.Capacity(r), cap);  // truncation alone keeps it
        rows.Trim(r);
        ExpectTrimmed(rows, r);
        break;
      default:
        if (size > 0) {
          const auto i = static_cast<uint32_t>(rng.UniformIndex(size));
          const uint64_t moved = rows.VerifiedSwapRemove(r, i, ref[r][i]);
          ref[r][i] = ref[r].back();
          ref[r].pop_back();
          if (i < ref[r].size()) ASSERT_EQ(moved, ref[r][i]);
          ExpectTrimmed(rows, r);
        }
        break;
    }
    ASSERT_TRUE(std::equal(ref[r].begin(), ref[r].end(),
                           rows.RowSpan(r).begin(), rows.RowSpan(r).end()))
        << "step " << step << " row " << r;
    if (step == kSteps / 2) held_mid = pool.held_bytes();
    if (step > kSteps / 2 && rows.Capacity(r) != cap) {
      moved_late += BlockBytes(rows.Capacity(r));
    }
  }

  // Every row holds its reference's words, and the pool's live bytes are
  // exactly the rows' blocks.
  blocks = 0;
  for (std::size_t r = 0; r < kRows; ++r) {
    ASSERT_EQ(rows.Size(r), ref[r].size()) << "row " << r;
    for (uint32_t i = 0; i < rows.Size(r); ++i) {
      ASSERT_EQ(rows.Get(r, i), ref[r][i]) << "row " << r;
    }
    ASSERT_LE(rows.Size(r), rows.Capacity(r));
    blocks += BlockBytes(rows.Capacity(r));
  }
  EXPECT_EQ(pool.live_bytes(), blocks);
  // The moves' freed blocks serve the later moves: over the second half
  // of the churn, whose moves took several chunks' worth of blocks, the
  // pool takes at most one more chunk.
  EXPECT_GT(moved_late, 4 * BlockPool::kChunkBytes);
  EXPECT_LE(pool.held_bytes(), held_mid + BlockPool::kChunkBytes);

  // A reset gives every block back before laying the new rows out.
  const std::size_t held = pool.held_bytes();
  rows.Reset(&pool, std::vector<uint32_t>(kRows, 0));
  EXPECT_EQ(pool.live_bytes(), 0u);
  EXPECT_EQ(pool.held_bytes(), held);
}

TEST(BlockRowsTest, RowsPastTheLastClassGetTheirOwnBlocks) {
  // An index row of a node with thousands of visits outgrows the pool's
  // classes and then grows and trims like any other row.
  BlockPool pool;
  BlockRows rows;
  rows.Reset(&pool, {0});
  const uint32_t n = 3 * BlockPool::kMaxBlockBytes / 8;
  for (uint32_t i = 0; i < n; ++i) rows.PushBack(0, i);
  EXPECT_GT(BlockBytes(rows.Capacity(0)), BlockPool::kMaxBlockBytes);
  EXPECT_EQ(pool.live_bytes(), BlockBytes(rows.Capacity(0)));
  for (uint32_t i = n; i-- > 1;) {
    ASSERT_EQ(rows.VerifiedSwapRemove(0, i, i), i);
    ExpectTrimmed(rows, 0);
  }
  EXPECT_EQ(rows.Size(0), 1u);
  EXPECT_EQ(rows.Get(0, 0), 0u);
  EXPECT_EQ(rows.Capacity(0), 2u);
  EXPECT_EQ(pool.live_bytes(), BlockPool::kGrain);
}

TEST(BlockRowsDeathTest, ReadingASpanAfterItsRowMovedTripsAsan) {
#ifndef WALK_SLAB_TEST_ASAN
  GTEST_SKIP() << "built without AddressSanitizer";
#else
  // A view held across the PushBack that moves its row: the old block
  // went back to the pool's free list, poisoned, so the read trips.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  BlockPool pool;
  BlockRows rows;
  rows.Reset(&pool, {2});
  while (rows.Size(0) < rows.Capacity(0)) rows.PushBack(0, 7);
  const auto view = rows.RowSpan(0);
  EXPECT_EQ(view[0], 7u);
  rows.PushBack(0, 8);
  ASSERT_NE(rows.RowSpan(0).data(), view.data());
  EXPECT_EQ(rows.Get(0, 0), 7u);
  EXPECT_DEATH(
      {
        volatile uint64_t word = view[0];
        (void)word;
      },
      "use-after-poison");
#endif
}

}  // namespace
}  // namespace fastppr
