#ifndef FASTPPR_STORE_WALK_STORE_H_
#define FASTPPR_STORE_WALK_STORE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/types.h"
#include "fastppr/store/repair_scratch.h"
#include "fastppr/store/walk_slab.h"
#include "fastppr/util/random.h"
#include "fastppr/util/shard.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Counters describing the cost of one incremental update, in the units the
/// paper's theorems are stated in.
struct WalkUpdateStats {
  /// Number of walk segments rerouted or extended (the paper's M_t).
  uint64_t segments_updated = 0;
  /// Number of fresh random-walk steps taken while re-simulating suffixes
  /// (each reroute costs ~1/epsilon of these; Theorem 4 bounds their total).
  uint64_t walk_steps = 0;
  /// 1 if the PageRank Store was actually called for this event (the
  /// 1-(1-1/d)^W gating of Section 2.2 decided the call was needed).
  uint64_t store_called = 0;
  /// Cheap index entries examined (deletion scans; reported separately
  /// because the paper's cost model does not charge for local scans).
  uint64_t entries_scanned = 0;

  void Accumulate(const WalkUpdateStats& other) {
    segments_updated += other.segments_updated;
    walk_steps += other.walk_steps;
    store_called += other.store_called;
    entries_scanned += other.entries_scanned;
  }
};
// Serialized raw by the engines' durability hooks: must stay padding-free.
static_assert(sizeof(WalkUpdateStats) == 4 * sizeof(uint64_t));

/// How an affected segment is repaired (Section 2.2: "we can redo the walk
/// starting at the updated node, or even more simply starting at the
/// corresponding source node").
enum class UpdatePolicy {
  /// Re-simulate only the suffix after the switched visit (exact: the
  /// resulting ensemble is distributed precisely as fresh new-graph
  /// walks, via the coupling argument).
  kRerouteFromVisit,
  /// Throw the whole affected segment away and regenerate it from its
  /// source (the paper's "even more simply" option, implemented for the
  /// switch/breakage repairs; dangling resumes are always handled exactly
  /// since their terminal visit already survived a reset draw).
  ///
  /// REPRODUCTION FINDING: this option is *not* distribution-preserving
  /// over long streams. A redo re-rolls the segment's reset draws, and a
  /// segment that comes out short (early reset) carries fewer step visits,
  /// so it is less likely to ever be selected for repair again —
  /// short-segment states are nearly absorbing, and over thousands of
  /// arrivals the stored ensemble drifts toward short walks (measurably
  /// inflated L1 error in the ablation bench). Use kRerouteFromVisit (the
  /// exact coupling) for production; this policy exists to quantify the
  /// paper's remark.
  kRedoFromSource,
};

/// The "PageRank Store" of Section 2: R random-walk segments per node, each
/// continued until its first epsilon-reset, plus an inverted visit index so
/// that the segments crossing an updated node can be found and rerouted in
/// time proportional to the number that actually change.
///
/// Segment semantics (see DESIGN.md): a segment from u is [u, x1, ..., xT]
/// where at each node the walk stops with probability epsilon ("reset"),
/// stops if the node has no out-edge ("dangling exit", equivalent to a
/// reset), and otherwise moves to a uniformly random out-neighbour. T is
/// geometric with mean (1-eps)/eps, so the expected node count is 1/eps.
///
/// Storage layout (DESIGN.md): all path entries live in one flat slab
/// arena of packed 8-byte words (40-bit node, 24-bit index back-slot) with
/// per-segment offset/length spans, and the step/dangling inverted indexes
/// are pooled flat rows of packed (40-bit segment, 24-bit position) words
/// with swap-remove semantics — no per-segment or per-node heap vectors.
///
/// Incremental maintenance implements the coupling argument of
/// Proposition 2, once per ingestion window (RepairWindow; DESIGN.md §1
/// has the derivation). Per source u with a net change — d_after slots
/// after the window, r_x net removed copies of u->x, k net new slots:
///  * a stored hop u->x breaks with probability r_x / (c_after(x) + r_x)
///    and redraws uniformly over all d_after slots (visits at u are
///    scanned; scans are counted separately);
///  * every step visit at u switches with probability k / d_after onto a
///    uniformly chosen new slot — one Binomial draw plus Floyd sampling,
///    so work is proportional to the switches, not to the visits; a
///    break wins a tie with a switch at the same position;
///  * if u had no out-edge before the window, every segment dangling at
///    u resumes unconditionally through a new slot (this is where
///    Example 1's adversarial Omega(n) cost lives); if u has none after
///    it, broken visits become dangling tails.
/// All decisions are collected before any suffix is re-simulated, the
/// earliest affected position per segment wins, and suffixes are drawn
/// on the post-window graph, so fresh suffixes are never switched
/// twice. OnEdgeInserted / OnEdgeRemoved are one-event windows.
class WalkStore {
 public:
  static constexpr uint32_t kNoSlot = slab::kNoLo;

  enum class EndReason : uint8_t {
    kReset,     ///< the geometric reset fired
    kDangling,  ///< the tail node had no out-edge
  };

  /// Read-only view of one stored segment: a span over the packed entry
  /// arena. Invalidated by any mutating call on the store.
  class SegmentView {
   public:
    SegmentView(std::span<const uint64_t> words, EndReason end)
        : words_(words), end_(end) {}

    std::size_t size() const { return words_.size(); }
    bool empty() const { return words_.empty(); }
    /// Node visited at position `p`.
    NodeId node(std::size_t p) const {
      return static_cast<NodeId>(slab::Hi(words_[p]));
    }
    /// Inverted-index back-slot of position `p` (kNoSlot for an unindexed
    /// reset tail).
    uint32_t slot(std::size_t p) const { return slab::Lo(words_[p]); }
    EndReason end() const { return end_; }

   private:
    std::span<const uint64_t> words_;
    EndReason end_;
  };

  WalkStore() = default;

  /// Generates R segments per node of `g`. Estimates are maintained
  /// incrementally afterwards via OnEdgeInserted / OnEdgeRemoved.
  ///
  /// Sharded mode (`shard_count` > 1): the store generates segments only
  /// for *owned* source nodes — those with ShardOfNode(u, shard_count) ==
  /// shard_index — leaving the other segment rows empty. Segment ids stay
  /// global (u * R + k), so GetSegment addressing is uniform across
  /// shards, and all repair paths are driven by the inverted indexes
  /// (which list only owned-walk visits), so the incremental update code
  /// is shard-oblivious. Visit counts then cover only the owned walks;
  /// the sharded engine merges them across shards.
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

  /// Selects the repair strategy (default kRerouteFromVisit).
  void set_update_policy(UpdatePolicy policy) { policy_ = policy; }
  UpdatePolicy update_policy() const { return policy_; }

  std::size_t walks_per_node() const { return walks_per_node_; }
  double epsilon() const { return epsilon_; }
  std::size_t num_nodes() const { return visit_count_.size(); }
  std::size_t num_segments() const { return paths_.num_rows(); }

  /// X_v: total visits to v across all stored segments.
  int64_t VisitCount(NodeId v) const { return visit_count_[v]; }
  int64_t TotalVisits() const { return total_visits_; }

  /// The paper's estimator pi~_v = X_v / (nR/eps)  (Theorem 1).
  double Estimate(NodeId v) const;
  /// X_v / total visits: sums to exactly 1 and matches the power-iteration
  /// baseline's dangling-to-reset semantics even on graphs with dangling
  /// nodes.
  double NormalizedEstimate(NodeId v) const;
  /// All normalized estimates (O(n)).
  std::vector<double> NormalizedEstimates() const;

  /// Number of stored-walk visits at v that have an outgoing step; this is
  /// the W(v) counter of Section 2.2 used for the store-call gating.
  std::size_t StepVisitCount(NodeId v) const { return steps_.Size(v); }
  std::size_t DanglingCount(NodeId v) const { return dangling_.Size(v); }

  /// Read access to the k-th stored segment of node u (k < R). The view is
  /// invalidated by any subsequent mutation of the store.
  SegmentView GetSegment(NodeId u, std::size_t k) const {
    const uint64_t seg = SegId(u, k);
    return SegmentView(paths_.RowSpan(seg),
                       static_cast<EndReason>(seg_end_[seg]));
  }

  /// Stored segment rows per node in the global segment-id addressing
  /// (SegId(u, k) = u * segments_per_node() + k).
  std::size_t segments_per_node() const { return walks_per_node_; }

  /// Raw packed path words of segment `seg` — the segment-snapshot
  /// publisher's bulk-copy source (store/segment_snapshot.h).
  std::span<const uint64_t> SegmentWords(uint64_t seg) const {
    return paths_.RowSpan(seg);
  }

  /// Opt-in delta feed for frozen segment snapshots
  /// (store/segment_snapshot.h): while enabled, every repaired segment
  /// id is recorded (possibly more than once per window). Off by
  /// default so stores without a serving layer pay nothing.
  void set_dirty_tracking(bool on) { dirty_.SetTracking(on); }
  std::span<const uint64_t> dirty_segments() const {
    return dirty_.entries();
  }
  bool dirty_overflowed() const { return dirty_.overflowed(); }
  void ClearDirtySegments() { dirty_.Clear(); }

  /// Repairs every stored walk for one applied window: `g` is the
  /// post-window graph and `delta` the window's net change (its out
  /// side). `rng` drives the coupling randomness.
  WalkUpdateStats RepairWindow(const DiGraph& g, const WindowDelta& delta,
                               Rng* rng);
  /// Whether RepairWindow reads the delta's in side (build it with
  /// WindowDelta::Build(applied, kRepairsInEdges)).
  static constexpr bool kRepairsInEdges = false;

  /// One-event windows. Must be called after `g` already contains the
  /// new edge (u, v).
  WalkUpdateStats OnEdgeInserted(const DiGraph& g, NodeId u, NodeId v,
                                 Rng* rng);

  /// Must be called after the edge (u, v) has already been removed from
  /// `g`.
  WalkUpdateStats OnEdgeRemoved(const DiGraph& g, NodeId u, NodeId v,
                                Rng* rng);

  /// Full invariant audit (index/backpointer/counter consistency and edge
  /// validity of every stored hop). O(n + total visits); test-only.
  /// Aborts via FASTPPR_CHECK on violation.
  void CheckConsistency(const DiGraph& g) const;

  /// Durability hooks (DESIGN.md §8): every behavior-bearing member
  /// verbatim — path/index slab pools (including dead words, so future
  /// relocation decisions replay identically), counters, and the
  /// store's RNG state. The transient repair scratch and the snapshot
  /// dirty feed are NOT state: they are empty at every phase boundary,
  /// where checkpoints are taken.
  template <typename Sink>
  void SaveTo(Sink* w) const {
    w->Pod(static_cast<uint64_t>(walks_per_node_));
    w->Pod(epsilon_);
    w->Pod(static_cast<uint8_t>(policy_));
    w->Pod(rng_.State());
    w->Pod(shard_index_);
    w->Pod(shard_count_);
    w->Pod(static_cast<uint64_t>(owned_sources_));
    paths_.SaveTo(w);
    w->Vec(seg_end_);
    steps_.SaveTo(w);
    dangling_.SaveTo(w);
    w->Vec(visit_count_);
    w->Pod(total_visits_);
  }

  /// Restores SaveTo state (the checkpoint path — raw trusted-by-CRC
  /// columns). Returns false on any structural inconsistency; caller
  /// maps to Corruption.
  template <typename Src>
  bool LoadFrom(Src* r) {
    uint64_t wpn = 0, owned = 0;
    uint8_t policy = 0;
    std::array<uint64_t, 4> rng_state{};
    if (!r->Pod(&wpn) || !r->Pod(&epsilon_) || !r->Pod(&policy) ||
        !r->Pod(&rng_state) || !r->Pod(&shard_index_) ||
        !r->Pod(&shard_count_) || !r->Pod(&owned)) {
      return false;
    }
    walks_per_node_ = static_cast<std::size_t>(wpn);
    owned_sources_ = static_cast<std::size_t>(owned);
    if (policy > static_cast<uint8_t>(UpdatePolicy::kRedoFromSource)) {
      return r->Fail("bad update policy");
    }
    policy_ = static_cast<UpdatePolicy>(policy);
    rng_.SetState(rng_state);
    if (!paths_.LoadFrom(r) || !r->Vec(&seg_end_) || !steps_.LoadFrom(r) ||
        !dangling_.LoadFrom(r) || !r->Vec(&visit_count_) ||
        !r->Pod(&total_visits_)) {
      return false;
    }
    if (seg_end_.size() != paths_.num_rows() ||
        steps_.num_rows() != visit_count_.size() ||
        dangling_.num_rows() != visit_count_.size() ||
        paths_.num_rows() != visit_count_.size() * walks_per_node_) {
      return r->Fail("walk store tables disagree on geometry");
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
    return static_cast<uint64_t>(u) * walks_per_node_ + k;
  }

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

  /// Registers the entry at `pos` of `seg` into the step index.
  void RegisterStep(uint64_t seg, uint32_t pos);
  /// Removes a step registration (swap-remove with backpointer fixup).
  void UnregisterStep(uint64_t seg, uint32_t pos);
  void RegisterDangling(uint64_t seg, uint32_t pos);
  void UnregisterDangling(uint64_t seg, uint32_t pos);
  /// slab::RemoveIndexEntry bound to this store's path arena.
  void RemoveIndexAt(slab::SlabPool* pool, NodeId node, uint32_t slot,
                     uint64_t seg, uint32_t pos) {
    slab::RemoveIndexEntry(pool, &paths_, node, slot, seg, pos);
  }

  /// Records a repaired segment into the snapshot delta feed (called
  /// once per scheduled repair at plan-drain time — the repair plan is
  /// already per-segment deduplicated within a window, so no flag array
  /// and no extra cache line on the hot path; duplicates across the
  /// windows between two publishes are possible and harmless).
  void RecordDirtySegment(uint64_t seg) { dirty_.Record(seg); }

  /// Drops all path entries with index > keep_pos (counters + index).
  void TruncateAfter(uint64_t seg, uint32_t keep_pos);

  /// Truncates the segment to its bare source node with a pending tail
  /// (kRedoFromSource repairs).
  void ResetSegmentToSource(uint64_t seg);

  /// A segment whose tail is pending re-extension. `start` is the tail
  /// position (unregistered); `forced` != kInvalidNode makes the first
  /// step go there without a reset draw (the original draw survived).
  struct PendingWalk {
    uint64_t seg = 0;
    NodeId cur = kInvalidNode;
    NodeId forced = kInvalidNode;
    uint32_t start = 0;
  };

  /// Drains `walk_queue_`: re-simulates each pending walk to completion
  /// in queue order (all draws of walk i precede walk i+1's; the stream
  /// is deterministic given the RNG state). Returns total fresh steps.
  uint64_t ExtendPendingWalks(const DiGraph& g, Rng* rng);

  /// Registration sweep for a finished walk: end reason, step/dangling
  /// index entries and visit counters for positions (start, end).
  void FinishWalk(uint64_t seg, uint32_t start, bool dangling);

  /// Lays out segments and rebuilds both indexes from flat path data:
  /// `nodes` holds the concatenated paths, row r covering the next
  /// lengths[r] entries. Exact-fit: no relocation, no dead space.
  void BuildFromFlatPaths(std::size_t n, const std::vector<NodeId>& nodes,
                          const std::vector<uint32_t>& lengths,
                          const std::vector<uint8_t>& ends);

  // --- window-repair scratch (see RepairWindow) ---------------------
  /// One scheduled segment repair: the earliest affected position per
  /// segment wins; everything after it is re-simulated. Switches and
  /// resumes land on delta.out().added[added_begin, +added_count).
  struct PendingRepair {
    uint64_t seg = 0;
    uint32_t pos = 0;
    uint32_t added_begin = 0;
    uint32_t added_count = 0;
    slab::RepairKind kind = slab::RepairKind::kSwitch;
  };

  /// Collects the break, switch and resume decisions at one pivot.
  void CollectPivot(const DiGraph& g, const WindowDelta::Side& side,
                    const WindowDelta::Pivot& p, Rng* rng,
                    WalkUpdateStats* stats);

  std::size_t walks_per_node_ = 0;
  double epsilon_ = 0.2;
  UpdatePolicy policy_ = UpdatePolicy::kRerouteFromVisit;
  Rng rng_{0};
  uint32_t shard_index_ = 0;
  uint32_t shard_count_ = 1;
  std::size_t owned_sources_ = 0;

  /// Packed (node, slot) path entries; row = segment.
  slab::SlabPool paths_;
  /// Per-segment EndReason (uint8_t to keep the arena words pure).
  std::vector<uint8_t> seg_end_;
  /// Inverted index of non-terminal visits; row = node, words = (seg, pos).
  slab::SlabPool steps_;
  /// Segments terminally dangling at each node; row = node.
  slab::SlabPool dangling_;
  std::vector<int64_t> visit_count_;
  int64_t total_visits_ = 0;

  /// Dirty-segment feed for the snapshot publishers (see
  /// dirty_segments()).
  slab::DirtyFeed<uint64_t> dirty_;

  // Reusable window-repair scratch: zero steady-state allocation. The
  // collect-then-apply machinery is shared with SalsaWalkStore via
  // slab::RepairScratch (repair_scratch.h).
  slab::RepairScratch<PendingRepair> scratch_;
  /// Post-window copies of each removed target at the current pivot.
  std::vector<uint32_t> remaining_;
  std::vector<PendingWalk> walk_queue_;
  WindowDelta single_;  ///< OnEdgeInserted / OnEdgeRemoved windows
};

}  // namespace fastppr

#endif  // FASTPPR_STORE_WALK_STORE_H_
