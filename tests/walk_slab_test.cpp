// The walk stores' slab pool (store/walk_slab.h): its arena reserves
// room up to the compaction point, so relocations under churn append in
// place instead of reallocating the arena; the reservation is not
// state, so a reserved pool serializes the same bytes as an unreserved
// one; and the ledger's used, dead and reserved bytes tile the arena.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/store/arena_io.h"
#include "fastppr/store/walk_slab.h"
#include "fastppr/util/random.h"

namespace fastppr {
namespace {

using slab::SlabPool;

std::size_t ArenaBytes(const SlabPool& pool) {
  return pool.used_bytes() + pool.dead_bytes() + pool.reserved_bytes();
}

std::vector<uint8_t> Serialized(const SlabPool& pool) {
  ArenaWriter w;
  pool.SaveTo(&w);
  return w.buffer();
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
  ASSERT_EQ(Serialized(unreserved), Serialized(pool));

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
  // The reservation is not state.
  EXPECT_EQ(Serialized(unreserved), Serialized(pool));
}

TEST(SlabPoolTest, LoadFromRestoresTheReservation) {
  Rng rng(11);
  std::vector<uint32_t> sizes(1000);
  for (uint32_t& s : sizes) s = static_cast<uint32_t>(rng.UniformIndex(9));
  SlabPool pool;
  pool.ResetWithCapacities(sizes);
  uint64_t next_word = 1;
  for (int step = 0; step < 5000; ++step) ChurnStep(&pool, &rng, &next_word);
  ASSERT_GT(pool.dead_bytes(), 0u);
  const std::vector<uint8_t> bytes = Serialized(pool);

  SlabPool loaded;
  ArenaReader r(bytes);
  ASSERT_TRUE(loaded.LoadFrom(&r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(Serialized(loaded), bytes);
  EXPECT_EQ(loaded.used_bytes(), pool.used_bytes());
  EXPECT_EQ(loaded.dead_bytes(), pool.dead_bytes());
  // Room up to twice the rows' capacity, counted from the arena's end.
  EXPECT_EQ(ArenaBytes(loaded), 2 * loaded.used_bytes());
}

TEST(SlabPoolTest, LoadFromRejectsMoreDeadWordsThanTheArena) {
  ArenaWriter w;
  w.Vec(std::vector<uint64_t>(8, 0));
  w.Vec(std::vector<uint64_t>{});  // no rows
  w.Pod(uint64_t{9});               // dead words past the arena
  SlabPool pool;
  ArenaReader r(w.buffer());
  EXPECT_FALSE(pool.LoadFrom(&r));
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace fastppr
