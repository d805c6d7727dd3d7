#ifndef FASTPPR_STORE_REPAIR_SCRATCH_H_
#define FASTPPR_STORE_REPAIR_SCRATCH_H_

// Window-repair collection machinery of the walk store
// (BasicWalkStore, both estimators; companion to its rows, BlockRows in
// store/walk_slab.h; see DESIGN.md §1). The store collects every switch/break/resume decision of an
// ingestion window, on every side, *before* re-simulating any suffix —
// a fresh suffix is already distributed for the post-window graph and
// must never be switched twice — keeping only the earliest affected
// position per segment. The collection state (epoch-stamped per-segment
// dedup, Floyd-sampling scratch) lives here, beside the index primitive
// it works with. The collected plan outlives its window: it is the
// record of which segments the window repaired, and the snapshot
// publisher copies exactly those rows (BasicWalkStore::
// ForEachRepairedSegment).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fastppr/graph/types.h"
#include "fastppr/store/walk_slab.h"
#include "fastppr/util/random.h"

namespace fastppr::slab {

/// Swap-removes index entry (node, slot) — known to reference
/// (seg, pos) — from `index`, fixing up the moved entry's backpointer in
/// the path rows. Does NOT clear the removed path word's slot field;
/// callers deleting the entry skip that write, others must reset it
/// themselves.
inline void RemoveIndexEntry(BlockRows* index, BlockRows* paths, NodeId node,
                             uint32_t slot, uint64_t seg, uint32_t pos) {
  const uint64_t here = Pack(seg, pos);
  const uint64_t moved = index->VerifiedSwapRemove(node, slot, here);
  if (moved != here) {
    paths->SetLo(Hi(moved), Lo(moved), slot);
  }
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
  /// The plan: one entry per repaired segment, in apply order once
  /// OrderForApply ran. Kept until the next BeginEpoch.
  const std::vector<Repair>& pending() const { return pending_; }

  /// Large pending sets are applied in segment order so the repair pass
  /// walks the path rows in order (repairs are independent, so the
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
