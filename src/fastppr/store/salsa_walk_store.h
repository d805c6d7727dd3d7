#ifndef FASTPPR_STORE_SALSA_WALK_STORE_H_
#define FASTPPR_STORE_SALSA_WALK_STORE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/types.h"
#include "fastppr/store/repair_scratch.h"
#include "fastppr/store/walk_slab.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/random.h"
#include "fastppr/util/shard.h"

namespace fastppr {

/// Walk-segment store for SALSA (Section 2.3 of the paper).
///
/// SALSA's random walk alternates forward (out-edge) and backward (in-edge)
/// steps; resets are drawn only before forward steps, so the mean segment
/// length is 2/eps. Each node stores 2R segments: R beginning with a
/// forward step (the node in *hub* role) and R beginning with a backward
/// step (the node in *authority* role).
///
/// A position's role is determined by parity: positions about to take a
/// forward step are hub-side, positions about to take a backward step are
/// authority-side. Authority scores are estimated from authority-side visit
/// frequencies (as eps -> 0 the global authority score converges to
/// indegree/m); hub scores from hub-side frequencies.
///
/// Storage uses the same slab layout as WalkStore (DESIGN.md): packed
/// 8-byte path words in one arena with per-segment spans, and pooled flat
/// inverted-index rows (forward/backward steps, forward/backward dangling)
/// with swap-remove semantics.
///
/// Incremental maintenance mirrors WalkStore's window coupling, but an
/// edge change (u, v) can reroute walks at *both* endpoints: forward
/// steps at u (out-slots; switch probability k/outdeg(u)) and backward
/// steps at v (in-slots; switch probability k/indeg(v)) — this is one of
/// the factors behind Theorem 6's 16x constant. RepairWindow applies the
/// same break/switch/resume rule to every source pivot (the delta's out
/// side) and every target pivot (its in side) and collects every
/// decision before re-simulating any suffix; OnEdgeInserted /
/// OnEdgeRemoved are one-event windows.
class SalsaWalkStore {
 public:
  static constexpr uint32_t kNoSlot = slab::kNoLo;

  enum class Direction : uint8_t { kForward, kBackward };

  enum class EndReason : uint8_t {
    kReset,        ///< reset fired before a forward step
    kDanglingFwd,  ///< tail has no out-edge (forward step impossible)
    kDanglingBwd,  ///< tail has no in-edge (backward step impossible)
  };

  /// Read-only view of one stored segment (see WalkStore::SegmentView).
  class SegmentView {
   public:
    SegmentView(std::span<const uint64_t> words, EndReason end,
                bool forward_start)
        : words_(words), end_(end), forward_start_(forward_start) {}

    std::size_t size() const { return words_.size(); }
    bool empty() const { return words_.empty(); }
    NodeId node(std::size_t p) const {
      return static_cast<NodeId>(slab::Hi(words_[p]));
    }
    uint32_t slot(std::size_t p) const { return slab::Lo(words_[p]); }
    EndReason end() const { return end_; }
    bool forward_start() const { return forward_start_; }

   private:
    std::span<const uint64_t> words_;
    EndReason end_;
    bool forward_start_;
  };

  SalsaWalkStore() = default;

  /// Generates R forward-start and R backward-start segments per node.
  /// Sharded mode (`shard_count` > 1) generates segments only for owned
  /// source nodes, exactly as WalkStore::Init.
  void Init(const DiGraph& g, std::size_t walks_per_node, double epsilon,
            uint64_t seed, uint32_t shard_index = 0,
            uint32_t shard_count = 1);

  /// True iff this store owns (stores the segments of) source node `u`.
  bool OwnsSource(NodeId u) const {
    return ShardOfNode(u, shard_count_) == shard_index_;
  }
  std::size_t owned_sources() const { return owned_sources_; }
  uint32_t shard_index() const { return shard_index_; }
  uint32_t shard_count() const { return shard_count_; }

  std::size_t walks_per_node() const { return walks_per_node_; }
  double epsilon() const { return epsilon_; }
  std::size_t num_nodes() const { return hub_visits_.size(); }
  std::size_t num_segments() const { return paths_.num_rows(); }

  int64_t HubVisits(NodeId v) const { return hub_visits_[v]; }
  int64_t AuthorityVisits(NodeId v) const { return auth_visits_[v]; }
  int64_t TotalHubVisits() const { return total_hub_; }
  int64_t TotalAuthorityVisits() const { return total_auth_; }

  /// Authority-side visit frequency (sums to 1 over all nodes).
  double NormalizedAuthority(NodeId v) const;
  /// Hub-side visit frequency (sums to 1 over all nodes).
  double NormalizedHub(NodeId v) const;

  /// Direction of the step taken at position `pos` of segment `seg`
  /// (terminal positions report the direction the step would have had).
  Direction StepDirection(uint64_t seg, uint32_t pos) const {
    const bool even = (pos % 2 == 0);
    return (even == ForwardStart(seg)) ? Direction::kForward
                                       : Direction::kBackward;
  }

  /// k < walks_per_node: forward-start segment; k in [R, 2R): backward.
  /// The view is invalidated by any subsequent mutation of the store.
  SegmentView GetSegment(NodeId u, std::size_t k) const {
    const uint64_t seg = SegId(u, k);
    return SegmentView(paths_.RowSpan(seg),
                       static_cast<EndReason>(seg_end_[seg]),
                       ForwardStart(seg));
  }

  /// Stored segment rows per node in the global segment-id addressing
  /// (SegId(u, k) = u * segments_per_node() + k): R forward + R backward.
  std::size_t segments_per_node() const { return 2 * walks_per_node_; }

  /// Raw packed path words of segment `seg` — the segment-snapshot
  /// publisher's bulk-copy source (store/segment_snapshot.h).
  std::span<const uint64_t> SegmentWords(uint64_t seg) const {
    return paths_.RowSpan(seg);
  }

  /// Opt-in delta feed for frozen segment snapshots (see
  /// WalkStore::dirty_segments()). Off by default.
  void set_dirty_tracking(bool on) { dirty_.SetTracking(on); }
  std::span<const uint64_t> dirty_segments() const {
    return dirty_.entries();
  }
  bool dirty_overflowed() const { return dirty_.overflowed(); }
  void ClearDirtySegments() { dirty_.Clear(); }

  /// Repairs every stored walk for one applied window (see
  /// WalkStore::RepairWindow): `g` is the post-window graph; `delta`
  /// must carry its in side.
  WalkUpdateStats RepairWindow(const DiGraph& g, const WindowDelta& delta,
                               Rng* rng);
  static constexpr bool kRepairsInEdges = true;

  /// One-event windows. Graph must already contain (u, v).
  WalkUpdateStats OnEdgeInserted(const DiGraph& g, NodeId u, NodeId v,
                                 Rng* rng);
  /// Graph must no longer contain (u, v).
  WalkUpdateStats OnEdgeRemoved(const DiGraph& g, NodeId u, NodeId v,
                                Rng* rng);

  /// Full invariant audit; test-only. Aborts on violation.
  void CheckConsistency(const DiGraph& g) const;

  /// Durability hooks (DESIGN.md §8): mirror of WalkStore::SaveTo with
  /// SALSA's extra columns (forward-start flags, both step and both
  /// dangling index pools, hub/authority counters).
  template <typename Sink>
  void SaveTo(Sink* w) const {
    w->Pod(static_cast<uint64_t>(walks_per_node_));
    w->Pod(epsilon_);
    w->Pod(rng_.State());
    w->Pod(shard_index_);
    w->Pod(shard_count_);
    w->Pod(static_cast<uint64_t>(owned_sources_));
    paths_.SaveTo(w);
    w->Vec(seg_end_);
    w->Vec(seg_fwd_);
    step_fwd_.SaveTo(w);
    step_bwd_.SaveTo(w);
    dangling_fwd_.SaveTo(w);
    dangling_bwd_.SaveTo(w);
    w->Vec(hub_visits_);
    w->Vec(auth_visits_);
    w->Pod(total_hub_);
    w->Pod(total_auth_);
  }

  /// Restores SaveTo state; false on structural inconsistency (caller
  /// maps to Corruption).
  template <typename Src>
  bool LoadFrom(Src* r) {
    uint64_t wpn = 0, owned = 0;
    std::array<uint64_t, 4> rng_state{};
    if (!r->Pod(&wpn) || !r->Pod(&epsilon_) || !r->Pod(&rng_state) ||
        !r->Pod(&shard_index_) || !r->Pod(&shard_count_) ||
        !r->Pod(&owned)) {
      return false;
    }
    walks_per_node_ = static_cast<std::size_t>(wpn);
    owned_sources_ = static_cast<std::size_t>(owned);
    rng_.SetState(rng_state);
    if (!paths_.LoadFrom(r) || !r->Vec(&seg_end_) || !r->Vec(&seg_fwd_) ||
        !step_fwd_.LoadFrom(r) || !step_bwd_.LoadFrom(r) ||
        !dangling_fwd_.LoadFrom(r) || !dangling_bwd_.LoadFrom(r) ||
        !r->Vec(&hub_visits_) || !r->Vec(&auth_visits_) ||
        !r->Pod(&total_hub_) || !r->Pod(&total_auth_)) {
      return false;
    }
    const std::size_t n = hub_visits_.size();
    if (seg_end_.size() != paths_.num_rows() ||
        seg_fwd_.size() != paths_.num_rows() ||
        auth_visits_.size() != n || step_fwd_.num_rows() != n ||
        step_bwd_.num_rows() != n || dangling_fwd_.num_rows() != n ||
        dangling_bwd_.num_rows() != n ||
        paths_.num_rows() != n * 2 * walks_per_node_) {
      return r->Fail("salsa walk store tables disagree on geometry");
    }
    // Re-size the transient repair machinery that Init() would normally
    // set up; a recovered store skips Init entirely.
    scratch_.ResetSegments(paths_.num_rows());
    dirty_.ResetCap(slab::DirtyCapForOwnedRows(paths_));
    dirty_.Clear();
    return true;
  }

 private:
  uint64_t SegId(NodeId u, std::size_t k) const {
    return static_cast<uint64_t>(u) * 2 * walks_per_node_ + k;
  }
  /// Stored (not derived): StepDirection sits on every hot path and a
  /// modulo by 2R here costs a hardware divide per walk step.
  bool ForwardStart(uint64_t seg) const { return seg_fwd_[seg] != 0; }

  NodeId PathNode(uint64_t seg, uint32_t pos) const {
    return static_cast<NodeId>(slab::Hi(paths_.Get(seg, pos)));
  }
  uint32_t PathSlot(uint64_t seg, uint32_t pos) const {
    return slab::Lo(paths_.Get(seg, pos));
  }
  void SetPathSlot(uint64_t seg, uint32_t pos, uint32_t slot) {
    paths_.SetLo(seg, pos, slot);
  }
  uint32_t PathLen(uint64_t seg) const { return paths_.Size(seg); }
  EndReason End(uint64_t seg) const {
    return static_cast<EndReason>(seg_end_[seg]);
  }

  slab::SlabPool& StepPool(Direction d) {
    return d == Direction::kForward ? step_fwd_ : step_bwd_;
  }
  const slab::SlabPool& StepPool(Direction d) const {
    return d == Direction::kForward ? step_fwd_ : step_bwd_;
  }
  slab::SlabPool& DanglingPool(EndReason r) {
    return r == EndReason::kDanglingFwd ? dangling_fwd_ : dangling_bwd_;
  }

  void RegisterStep(uint64_t seg, uint32_t pos);
  void UnregisterStep(uint64_t seg, uint32_t pos);
  void RegisterDangling(uint64_t seg, uint32_t pos);
  void UnregisterDangling(uint64_t seg, uint32_t pos);
  /// slab::RemoveIndexEntry bound to this store's path arena.
  void RemoveIndexAt(slab::SlabPool* pool, NodeId node, uint32_t slot,
                     uint64_t seg, uint32_t pos) {
    slab::RemoveIndexEntry(pool, &paths_, node, slot, seg, pos);
  }
  void AddVisitCounters(NodeId node, Direction side, int64_t delta);

  /// Records a repaired segment into the snapshot delta feed (see
  /// WalkStore::RecordDirtySegment — plan-drain time, no flag array).
  void RecordDirtySegment(uint64_t seg) { dirty_.Record(seg); }

  void TruncateAfter(uint64_t seg, uint32_t keep_pos);
  uint64_t ExtendFromTail(const DiGraph& g, uint64_t seg, NodeId forced,
                          Rng* rng);

  /// One scheduled segment repair; earliest position per segment wins.
  /// Collected for *both* endpoints of every changed edge before any
  /// mutation: a suffix re-simulated for one endpoint is already
  /// distributed for the new graph and must not be switched again.
  /// Switches and resumes land on the `dir` side's
  /// added[added_begin, +added_count).
  struct PendingRepair {
    uint64_t seg = 0;
    uint32_t pos = 0;
    uint32_t added_begin = 0;
    uint32_t added_count = 0;
    Direction dir = Direction::kForward;
    slab::RepairKind kind = slab::RepairKind::kSwitch;
  };

  /// Collects the break, switch and resume decisions at one pivot of
  /// the `dir` side (out-slots for kForward, in-slots for kBackward).
  void CollectPivot(const DiGraph& g, Direction dir,
                    const WindowDelta::Side& side,
                    const WindowDelta::Pivot& p, Rng* rng,
                    WalkUpdateStats* stats);

  std::size_t walks_per_node_ = 0;
  double epsilon_ = 0.2;
  Rng rng_{0};
  uint32_t shard_index_ = 0;
  uint32_t shard_count_ = 1;
  std::size_t owned_sources_ = 0;

  slab::SlabPool paths_;
  std::vector<uint8_t> seg_end_;
  std::vector<uint8_t> seg_fwd_;  ///< 1 = forward-start segment
  slab::SlabPool step_fwd_;
  slab::SlabPool step_bwd_;
  slab::SlabPool dangling_fwd_;
  slab::SlabPool dangling_bwd_;
  std::vector<int64_t> hub_visits_;
  std::vector<int64_t> auth_visits_;
  int64_t total_hub_ = 0;
  int64_t total_auth_ = 0;

  /// Dirty-segment feed for the snapshot publishers (see
  /// dirty_segments()).
  slab::DirtyFeed<uint64_t> dirty_;

  // Reusable window-repair scratch: zero steady-state allocation. The
  // collect-then-apply machinery is shared with WalkStore via
  // slab::RepairScratch (repair_scratch.h).
  slab::RepairScratch<PendingRepair> scratch_;
  /// Post-window copies of each removed neighbour at the current pivot.
  std::vector<uint32_t> remaining_;
  WindowDelta single_;  ///< OnEdgeInserted / OnEdgeRemoved windows
};

}  // namespace fastppr

#endif  // FASTPPR_STORE_SALSA_WALK_STORE_H_
