#ifndef FASTPPR_STORE_WALK_SLAB_H_
#define FASTPPR_STORE_WALK_SLAB_H_

// Row storage for the walk stores (see DESIGN.md section 2).
//
// The PageRank Store is exercised once per edge arrival, so its constant
// factor is the product. The seed layout paid one heap allocation per
// segment (std::vector<PathEntry>) and per node (std::vector<VisitRef>
// inverted-index rows); every reroute chased pointers across the heap.
// This header packs walk state into 8-byte words and keeps each row of
// words (a segment's path, a node's index row) in one block of its
// store's size-class pool (store/block_pool.h), so a row's memory follows
// its size and a moved row's old block waits on a free list for the next
// row of its class.
//
// A word packs a 40-bit id in the high bits and a 24-bit ordinal in the
// low bits:
//   * path entries:    (node id, back-slot into the inverted index)
//   * index entries:   (segment id, position within the segment)
// 40 bits of id supports a trillion nodes / segments; 24 bits of ordinal
// bounds both index rows and segment lengths at ~16.7M, far beyond the
// geometric segment lengths (mean 1/eps) and any realistic visit-list row.
// Overflow aborts via FASTPPR_CHECK rather than wrapping.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "fastppr/store/block_pool.h"
#include "fastppr/util/check.h"

namespace fastppr::slab {

inline constexpr uint32_t kLoBits = 24;
inline constexpr uint64_t kLoMask = (uint64_t{1} << kLoBits) - 1;
inline constexpr uint64_t kHiLimit = uint64_t{1} << 40;
/// Sentinel ordinal ("no slot"); the largest 24-bit value is reserved.
inline constexpr uint32_t kNoLo = static_cast<uint32_t>(kLoMask);

constexpr uint64_t Pack(uint64_t hi, uint32_t lo) {
  return (hi << kLoBits) | (lo & kLoMask);
}
constexpr uint64_t Hi(uint64_t word) { return word >> kLoBits; }
constexpr uint32_t Lo(uint64_t word) {
  return static_cast<uint32_t>(word & kLoMask);
}
constexpr uint64_t WithLo(uint64_t word, uint32_t lo) {
  return (word & ~kLoMask) | (lo & kLoMask);
}

/// Variable-length rows of packed words, each row in its own block of a
/// BlockPool that the store's row sets share. Append, truncate and
/// swap-remove are O(1) amortized. A full row moves to a block of twice
/// its capacity; a row that fills a quarter of its block or less moves
/// to a block of twice its size (Trim, which swap-remove runs itself),
/// the hysteresis DiGraph's blocks use. Either way the old block goes
/// back to its class's free list, so the rows' blocks follow their
/// sizes, not their history. External references address (row, index)
/// pairs, never blocks, so moves are invisible to callers; a RowSpan is
/// not, and reading one after its row moved reads a freed block, which
/// the pool poisons for AddressSanitizer. None of the layout is state: a
/// checkpoint writes the rows' words in row order (store/walk_store.h).
///
/// The pool owns the blocks: destroying the rows frees nothing, and the
/// pool hands every block back when it dies.
class BlockRows {
 public:
  BlockRows() = default;
  BlockRows(const BlockRows&) = delete;
  BlockRows& operator=(const BlockRows&) = delete;

  /// One row per entry of `sizes`, empty and ready for bulk fill, in
  /// blocks of `pool`; the rows' previous blocks go back to their pool.
  /// A row gets a block of `size + size/2 + 2` words, so steady-state
  /// churn (truncate/re-extend, swap-remove/push) does not immediately
  /// move every touched row; a row of size 0 gets no block.
  void Reset(BlockPool* pool, const std::vector<uint32_t>& sizes) {
    for (Row& r : rows_) Move(&r, 0);
    pool_ = pool;
    rows_.assign(sizes.size(), Row{});
    for (std::size_t r = 0; r < sizes.size(); ++r) {
      if (sizes[r] > 0) Move(&rows_[r], sizes[r] + (sizes[r] >> 1) + 2);
    }
  }

  std::size_t num_rows() const { return rows_.size(); }
  uint32_t Size(std::size_t row) const { return rows_[row].size; }
  /// Words the row's block holds.
  uint32_t Capacity(std::size_t row) const { return rows_[row].cap; }

  uint64_t Get(std::size_t row, uint32_t i) const {
    return rows_[row].data[i];
  }

  std::span<const uint64_t> RowSpan(std::size_t row) const {
    return {rows_[row].data, rows_[row].size};
  }

  /// Appends and returns the index the word landed at.
  uint32_t PushBack(std::size_t row, uint64_t word) {
    Row& r = rows_[row];
    if (r.size == r.cap) Move(&r, r.cap == 0 ? kMinWords : 2 * r.cap);
    r.data[r.size] = word;
    return r.size++;
  }

  /// Shrinks the row to `new_size` (<= current size) in O(1). The block
  /// stays: a repair re-extends the row right away (see Trim).
  void Truncate(std::size_t row, uint32_t new_size) {
    Row& r = rows_[row];
    FASTPPR_CHECK(new_size <= r.size);
    r.size = new_size;
  }

  /// Moves the row to a block of twice its size if it fills a quarter of
  /// its block or less; a row of size 0 gives its block back.
  void Trim(std::size_t row) { MaybeShrink(&rows_[row]); }

  /// Replaces element `i` — which must equal `expect` (corruption check,
  /// aborts otherwise) — with the last element, shrinks the row and
  /// trims it. Returns the word that now occupies index `i` (identical
  /// to the removed word when `i` was the last index). One row binding:
  /// this sits on the hottest path of the walk stores.
  uint64_t VerifiedSwapRemove(std::size_t row, uint32_t i, uint64_t expect) {
    Row& r = rows_[row];
    FASTPPR_CHECK(i < r.size);
    FASTPPR_CHECK(r.data[i] == expect);
    const uint64_t moved = r.data[--r.size];
    r.data[i] = moved;
    MaybeShrink(&r);
    return moved;
  }

  /// Overwrites only the low 24 bits of element `i` (one row binding).
  void SetLo(std::size_t row, uint32_t i, uint32_t lo) {
    uint64_t& w = rows_[row].data[i];
    w = WithLo(w, lo);
  }

 private:
  struct Row {
    uint64_t* data = nullptr;
    uint32_t size = 0;
    uint32_t cap = 0;
  };

  /// The smallest block: one grain.
  static constexpr uint32_t kMinWords = BlockPool::kGrain / sizeof(uint64_t);

  void MaybeShrink(Row* r) {
    if (r->size <= r->cap / 4) Move(r, 2 * r->size);
  }

  /// Copies the row into a block that holds at least `words` (>= its
  /// size) words, its class's whole block; 0 leaves it without one.
  void Move(Row* r, uint32_t words) {
    uint64_t* block = nullptr;
    std::size_t bytes = std::size_t{words} * sizeof(uint64_t);
    if (words > 0) {
      if (bytes <= BlockPool::kMaxBlockBytes) {
        bytes = BlockPool::ClassBytes(BlockPool::ClassFor(bytes));
      }
      block = static_cast<uint64_t*>(pool_->Allocate(bytes));
      if (r->size > 0) {
        std::memcpy(block, r->data, r->size * sizeof(uint64_t));
      }
    }
    if (r->cap > 0) pool_->Free(r->data, r->cap * sizeof(uint64_t));
    r->data = block;
    r->cap = static_cast<uint32_t>(bytes / sizeof(uint64_t));
  }

  BlockPool* pool_ = nullptr;
  std::vector<Row> rows_;
};

}  // namespace fastppr::slab

#endif  // FASTPPR_STORE_WALK_SLAB_H_
