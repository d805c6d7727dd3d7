// The walk stores' slab pool (store/walk_slab.h): its arena reserves
// room up to the compaction point, so relocations under churn append in
// place instead of reallocating the arena; the reservation changes no
// row, so a reserved pool holds the same rows as an unreserved one; and
// the ledger's used, dead and reserved bytes tile the arena.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/store/walk_slab.h"
#include "fastppr/util/random.h"

namespace fastppr {
namespace {

using slab::SlabPool;

std::size_t ArenaBytes(const SlabPool& pool) {
  return pool.used_bytes() + pool.dead_bytes() + pool.reserved_bytes();
}

/// Every row's words, in row order: what a checkpoint writes of a pool.
std::vector<std::vector<uint64_t>> Rows(const SlabPool& pool) {
  std::vector<std::vector<uint64_t>> rows;
  for (std::size_t r = 0; r < pool.num_rows(); ++r) {
    const auto row = pool.RowSpan(r);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

/// One churn step, the walk stores' row operations: grow a row, cut it
/// back, or swap-remove one of its words.
void ChurnStep(SlabPool* pool, Rng* rng, uint64_t* next_word) {
  const std::size_t row = 1 + rng->UniformIndex(pool->num_rows() - 1);
  const uint32_t size = pool->Size(row);
  switch (rng->UniformIndex(3)) {
    case 0:
      for (int i = 0; i < 3; ++i) pool->PushBack(row, (*next_word)++);
      break;
    case 1:
      pool->Truncate(row, size / 2);
      break;
    default:
      if (size > 0) {
        const auto i = static_cast<uint32_t>(rng->UniformIndex(size));
        pool->VerifiedSwapRemove(row, i, pool->Get(row, i));
      }
      break;
  }
}

TEST(SlabPoolTest, ChurnBelowTheCompactionPointNeverMovesTheArena) {
  constexpr std::size_t kRows = 4096;
  Rng rng(5);
  std::vector<uint32_t> sizes(kRows);
  for (uint32_t& s : sizes) s = static_cast<uint32_t>(rng.UniformIndex(12));
  SlabPool pool;
  pool.ResetWithCapacities(sizes);
  uint64_t next_word = 1;
  for (std::size_t r = 0; r < kRows; ++r) {
    for (uint32_t i = 0; i < sizes[r]; ++i) pool.PushBack(r, next_word++);
  }
  // Laid out with room for the arena to double.
  EXPECT_EQ(pool.dead_bytes(), 0u);
  EXPECT_EQ(pool.reserved_bytes(), pool.used_bytes());

  // A copy of a vector holds no spare capacity: the same rows without
  // the reservation.
  SlabPool unreserved = pool;
  ASSERT_EQ(unreserved.reserved_bytes(), 0u);
  ASSERT_EQ(Rows(unreserved), Rows(pool));

  // Row 0 is never touched, so its span moves only with the arena.
  const uint64_t* arena = pool.RowSpan(0).data();
  const uint64_t* unreserved_arena = unreserved.RowSpan(0).data();
  const std::size_t arena_bytes = ArenaBytes(pool);
  Rng churn_a(7);
  Rng churn_b(7);
  uint64_t words_a = next_word;
  uint64_t words_b = next_word;
  bool unreserved_moved = false;
  for (int step = 0; step < 20000; ++step) {
    ChurnStep(&pool, &churn_a, &words_a);
    ChurnStep(&unreserved, &churn_b, &words_b);
    ASSERT_EQ(pool.RowSpan(0).data(), arena) << "step " << step;
    ASSERT_EQ(ArenaBytes(pool), arena_bytes) << "step " << step;
    unreserved_moved |= unreserved.RowSpan(0).data() != unreserved_arena;
  }
  // The churn relocated rows into the reservation, short of using it
  // up, while the unreserved copy had to reallocate its arena.
  EXPECT_GT(pool.dead_bytes(), 0u);
  EXPECT_GT(pool.reserved_bytes(), 0u);
  EXPECT_TRUE(unreserved_moved);
  // The reservation changes no row.
  EXPECT_EQ(Rows(unreserved), Rows(pool));
}

}  // namespace
}  // namespace fastppr
