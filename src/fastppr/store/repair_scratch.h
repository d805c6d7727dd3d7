#ifndef FASTPPR_STORE_REPAIR_SCRATCH_H_
#define FASTPPR_STORE_REPAIR_SCRATCH_H_

// Window-repair collection machinery of the walk store
// (BasicWalkStore, both estimators; companion to SlabPool, see DESIGN.md
// §1). The store collects every switch/break/resume decision of an
// ingestion window, on every side, *before* re-simulating any suffix —
// a fresh suffix is already distributed for the post-window graph and
// must never be switched twice — keeping only the earliest affected
// position per segment. The collection state (epoch-stamped per-segment
// dedup, Floyd-sampling scratch) lives here, beside the index and
// dirty-feed primitives it works with.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fastppr/graph/types.h"
#include "fastppr/store/walk_slab.h"
#include "fastppr/util/random.h"

namespace fastppr::slab {

/// Swap-removes index entry (node, slot) — known to reference
/// (seg, pos) — from `pool`, fixing up the moved entry's backpointer in
/// the path arena. Does NOT clear the removed path word's slot field;
/// callers deleting the entry skip that write, others must reset it
/// themselves.
inline void RemoveIndexEntry(SlabPool* pool, SlabPool* paths, NodeId node,
                             uint32_t slot, uint64_t seg, uint32_t pos) {
  const uint64_t here = Pack(seg, pos);
  const uint64_t moved = pool->VerifiedSwapRemove(node, slot, here);
  if (moved != here) {
    paths->SetLo(Hi(moved), Lo(moved), slot);
  }
}

/// Overflow-capped delta feed for the snapshot publishers
/// (store/segment_snapshot.h): while tracking is on, Record() appends an
/// entry (a repaired segment id, an applied edge) until the cap, past
/// which the feed drops its contents and flags the overflow — a full
/// snapshot copy is cheaper than the delta at that point, and the feed
/// must stay bounded even with no consumer draining it. Off by default
/// so producers without a serving layer pay nothing. Shared by the walk
/// store and ShardedEngine so the overflow rule cannot drift between
/// them.
template <typename Entry>
class DirtyFeed {
 public:
  /// (Re)binds the overflow cap; drops any recorded state.
  void ResetCap(std::size_t cap) {
    cap_ = cap;
    entries_.clear();
    entries_.shrink_to_fit();
    overflow_ = false;
  }

  /// One up-front reservation at the cap, so recording on the
  /// producers' hot paths never reallocates. Turning tracking off
  /// releases the reservation: a producer whose serving layer is gone
  /// stops paying for it in memory too.
  void SetTracking(bool on) {
    tracking_ = on;
    if (on) {
      entries_.reserve(cap_);
    } else {
      entries_.clear();
      entries_.shrink_to_fit();
      overflow_ = false;
    }
  }
  bool tracking() const { return tracking_; }

  void Record(const Entry& entry) {
    if (!tracking_ || overflow_) return;
    if (entries_.size() >= cap_) {
      // Past the cap the next publish full-copies anyway: drop what we
      // have and stop paying for entries guaranteed to be discarded
      // (until Clear() re-arms the feed).
      overflow_ = true;
      entries_.clear();
      return;
    }
    entries_.push_back(entry);
  }

  std::span<const Entry> entries() const { return entries_; }
  /// True once the feed overflowed since the last Clear(): it was
  /// dropped and the next snapshot publish must full-copy.
  bool overflowed() const { return overflow_; }
  void Clear() {
    entries_.clear();
    overflow_ = false;
  }

 private:
  bool tracking_ = false;
  bool overflow_ = false;
  std::size_t cap_ = 0;
  std::vector<Entry> entries_;
};

/// The walk stores' DirtyFeed cap: ~this shard's OWNED row count
/// (unowned rows are empty and never repaired), not the global row
/// count — at S shards that is 1/S the feed reservation — with slack
/// for duplicate records, clamped to the row total.
inline std::size_t DirtyCapForOwnedRows(const SlabPool& rows) {
  std::size_t owned = 0;
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    if (rows.Size(r) > 0) ++owned;
  }
  return std::min(rows.num_rows(), owned + owned / 2 + 64);
}

/// What the window coupling decided for one collected position.
enum class RepairKind : uint8_t {
  kSwitch,  ///< step visit switches onto a uniformly chosen new slot
  kResume,  ///< dangling tail at a pivot that had no edge before
  kBreak,   ///< stored hop used a removed copy; redraws over all slots
};

/// Reusable collection scratch for one window repair: zero steady-state
/// allocation. `Repair` is the store's pending-repair struct; it must
/// expose public `seg` (uint64_t), `pos` (uint32_t) and `kind`
/// (RepairKind) members.
template <typename Repair>
class RepairScratch {
 public:
  /// Re-sizes the per-segment dedup table (call whenever the store is
  /// (re)built with a new segment count).
  void ResetSegments(std::size_t num_segments) {
    pending_.clear();
    meta_.assign(num_segments, 0);
    epoch_ = 0;
  }

  /// Starts a fresh collection epoch (O(1) amortized).
  void BeginEpoch() {
    pending_.clear();
    if (epoch_ == static_cast<uint32_t>(-1)) {
      std::fill(meta_.begin(), meta_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
  }

  /// Records a repair candidate, keeping the earliest position per
  /// segment. A break outranks a switch at the same position: the
  /// broken hop redraws over every post-window slot, which keeps each
  /// slot at probability 1/d_after (DESIGN.md §1).
  void Offer(const Repair& cand) {
    uint64_t& meta = meta_[cand.seg];
    if ((meta >> 32) != epoch_) {
      meta = (static_cast<uint64_t>(epoch_) << 32) | pending_.size();
      pending_.push_back(cand);
      return;
    }
    Repair& have = pending_[static_cast<uint32_t>(meta)];
    if (cand.pos < have.pos ||
        (cand.pos == have.pos && cand.kind == RepairKind::kBreak)) {
      have = cand;
    }
  }

  bool empty() const { return pending_.empty(); }
  const std::vector<Repair>& pending() const { return pending_; }

  /// Large pending sets are applied in segment order so the repair pass
  /// walks the path arena sequentially (repairs are independent, so the
  /// ordering is free to choose).
  void OrderForApply() {
    if (pending_.size() <= 32) return;
    std::sort(pending_.begin(), pending_.end(),
              [](const Repair& a, const Repair& b) { return a.seg < b.seg; });
  }

  /// Samples `marks` distinct indices in [0, w) into picked() (Floyd's
  /// algorithm; epoch-stamped membership, zero allocation).
  void SampleDistinct(std::size_t w, uint64_t marks, Rng* rng) {
    if (pick_epoch_.size() < w) pick_epoch_.resize(w, 0);
    if (pick_epoch_counter_ == static_cast<uint32_t>(-1)) {
      std::fill(pick_epoch_.begin(), pick_epoch_.end(), 0);
      pick_epoch_counter_ = 0;
    }
    ++pick_epoch_counter_;
    picked_.clear();
    auto try_pick = [&](std::size_t idx) {
      if (pick_epoch_[idx] == pick_epoch_counter_) return false;
      pick_epoch_[idx] = pick_epoch_counter_;
      picked_.push_back(idx);
      return true;
    };
    for (std::size_t j = w - marks; j < w; ++j) {
      std::size_t t = rng->UniformIndex(j + 1);
      if (!try_pick(t)) try_pick(j);
    }
  }

  /// Insertion-ordered result of the last SampleDistinct.
  const std::vector<std::size_t>& picked() const { return picked_; }

 private:
  std::vector<Repair> pending_;
  /// Per segment: (collection epoch << 32) | slot into pending_.
  std::vector<uint64_t> meta_;
  uint32_t epoch_ = 0;
  /// Floyd-sampling scratch: pick_epoch_[i] == pick_epoch_counter_ marks
  /// index i as picked this round.
  std::vector<uint32_t> pick_epoch_;
  std::vector<std::size_t> picked_;
  uint32_t pick_epoch_counter_ = 0;
};

}  // namespace fastppr::slab

#endif  // FASTPPR_STORE_REPAIR_SCRATCH_H_
