#ifndef FASTPPR_STORE_WALK_SLAB_H_
#define FASTPPR_STORE_WALK_SLAB_H_

// Slab-backed storage primitives for the walk stores (see DESIGN.md).
//
// The PageRank Store is exercised once per edge arrival, so its constant
// factor is the product. The seed layout paid one heap allocation per
// segment (std::vector<PathEntry>) and per node (std::vector<VisitRef>
// inverted-index rows); every reroute chased pointers across the heap.
// This header replaces both with the randgraph-style flat layout: walk
// state packed into 8-byte words stored in contiguous slab arenas, with
// per-row offset/length spans on top.
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
#include <span>
#include <vector>

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

/// A pool of variable-length rows of packed words backed by one flat
/// arena. Rows support append, pop-back and swap-remove in O(1); a row
/// that outgrows its reserved span is relocated to the arena tail with
/// doubled capacity (the vacated span is dead until the next
/// compaction). External references address (row, index) pairs — never
/// raw offsets — so relocation and compaction are invisible to callers.
///
/// The arena reserves room up to the compaction point, twice the rows'
/// capacity, whenever it is laid out (reset, compaction): relocations
/// then append inside the reservation instead of reallocating and
/// copying the arena and leaving the old buffer behind. Untouched
/// reserved pages cost address space, not resident memory. None of the
/// layout is state: a checkpoint writes the rows' words in row order
/// (store/walk_store.h), and loading lays them out through
/// ResetWithCapacities like a fresh store.
class SlabPool {
 public:
  /// One row per entry of `sizes`, laid out back-to-back (size 0, ready
  /// for bulk fill). Each row gets `size + size/2 + 2` capacity, so
  /// steady-state churn (truncate/re-extend, swap-remove/push) does not
  /// immediately relocate every touched row.
  void ResetWithCapacities(const std::vector<uint32_t>& sizes) {
    rows_.assign(sizes.size(), Row{});
    uint64_t total = 0;
    for (std::size_t r = 0; r < sizes.size(); ++r) {
      rows_[r].off = total;
      rows_[r].cap = sizes[r] + (sizes[r] >> 1) + 2;
      total += rows_[r].cap;
    }
    data_.clear();
    data_.reserve(kHeadroom * total);
    data_.resize(total, 0);
    dead_ = 0;
  }

  std::size_t num_rows() const { return rows_.size(); }
  uint32_t Size(std::size_t row) const { return rows_[row].size; }

  /// The arena's ledger, in bytes; the three add up to its allocation.
  /// Used: the rows' spans (their words and spare capacity). Dead: spans
  /// vacated by relocation, until compaction. Reserved: allocated past
  /// the arena's end, for relocations to come.
  std::size_t used_bytes() const {
    return (data_.size() - dead_) * sizeof(uint64_t);
  }
  std::size_t dead_bytes() const { return dead_ * sizeof(uint64_t); }
  std::size_t reserved_bytes() const {
    return (data_.capacity() - data_.size()) * sizeof(uint64_t);
  }

  uint64_t Get(std::size_t row, uint32_t i) const {
    return data_[rows_[row].off + i];
  }

  std::span<const uint64_t> RowSpan(std::size_t row) const {
    return {data_.data() + rows_[row].off, rows_[row].size};
  }

  /// Appends and returns the index the word landed at.
  uint32_t PushBack(std::size_t row, uint64_t word) {
    Row& r = rows_[row];
    if (r.size == r.cap) Grow(row);
    const uint32_t at = rows_[row].size++;
    data_[rows_[row].off + at] = word;
    return at;
  }

  /// Shrinks the row to `new_size` (<= current size) in O(1).
  void Truncate(std::size_t row, uint32_t new_size) {
    Row& r = rows_[row];
    FASTPPR_CHECK(new_size <= r.size);
    r.size = new_size;
  }

  /// Replaces element `i` — which must equal `expect` (corruption check,
  /// aborts otherwise) — with the last element and shrinks the row.
  /// Returns the word that now occupies index `i` (identical to the
  /// removed word when `i` was the last index). One row binding: this
  /// sits on the hottest path of the walk stores.
  uint64_t VerifiedSwapRemove(std::size_t row, uint32_t i, uint64_t expect) {
    Row& r = rows_[row];
    FASTPPR_CHECK(i < r.size);
    uint64_t* base = data_.data() + r.off;
    FASTPPR_CHECK(base[i] == expect);
    const uint64_t moved = base[r.size - 1];
    base[i] = moved;
    --r.size;
    return moved;
  }

  /// Overwrites only the low 24 bits of element `i` (one row binding).
  void SetLo(std::size_t row, uint32_t i, uint32_t lo) {
    uint64_t& w = data_[rows_[row].off + i];
    w = WithLo(w, lo);
  }

 private:
  struct Row {
    uint64_t off = 0;
    uint32_t size = 0;
    uint32_t cap = 0;
  };

  /// Arena capacity per word of row capacity: the compaction point.
  static constexpr uint64_t kHeadroom = 2;

  void Grow(std::size_t row) {
    Row& r = rows_[row];
    if (r.off + r.cap == data_.size()) {
      // Tail row: extend the arena in place.
      const uint32_t add = r.cap == 0 ? 4 : r.cap;
      data_.resize(data_.size() + add);
      r.cap += add;
      return;
    }
    // Relocate to the tail with doubled capacity; the old span is dead.
    const uint32_t new_cap = r.cap == 0 ? 4 : 2 * r.cap;
    const uint64_t new_off = data_.size();
    data_.resize(data_.size() + new_cap);
    for (uint32_t i = 0; i < r.size; ++i) {
      data_[new_off + i] = data_[r.off + i];
    }
    dead_ += r.cap;
    r.off = new_off;
    r.cap = new_cap;
    MaybeCompact();
  }

  void MaybeCompact() {
    if (data_.size() < 4096 || dead_ * 2 < data_.size()) return;
    // Squeeze out the relocation garbage between rows. Caps are
    // preserved: trimming them would put every row right back on the
    // relocation treadmill (each row's cap is its high-water mark, so
    // caps — and with them the compacted arena — are bounded).
    uint64_t total = 0;
    for (const Row& r : rows_) total += r.cap;
    std::vector<uint64_t> packed;
    packed.reserve(kHeadroom * total);
    packed.resize(total, 0);
    uint64_t at = 0;
    for (Row& r : rows_) {
      for (uint32_t i = 0; i < r.size; ++i) {
        packed[at + i] = data_[r.off + i];
      }
      r.off = at;
      at += r.cap;
    }
    data_.swap(packed);
    dead_ = 0;
  }

  std::vector<uint64_t> data_;
  std::vector<Row> rows_;
  uint64_t dead_ = 0;
};

}  // namespace fastppr::slab

#endif  // FASTPPR_STORE_WALK_SLAB_H_
