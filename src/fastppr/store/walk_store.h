#ifndef FASTPPR_STORE_WALK_STORE_H_
#define FASTPPR_STORE_WALK_STORE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/types.h"
#include "fastppr/store/block_pool.h"
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

/// The step policy of a stored walk. A walk position sits on one of
/// kSides sides: side 0 steps along an out-edge and is the only side that
/// draws a reset first; side 1 steps backward along an in-edge. Positions
/// cycle through the sides, so PageRank is the one-side case of SALSA's
/// alternating walk. kRankSide is the side whose visits score a node,
/// kRngSalt salts the engine's event-loop RNG seed, and kPersistTag names
/// the estimator in durable manifests (store/wal.h).
struct PageRankSteps {
  static constexpr uint32_t kSides = 1;
  static constexpr uint32_t kRankSide = 0;
  static constexpr uint64_t kRngSalt = 0x1CEB00DA;
  static constexpr uint8_t kPersistTag = 1;
};

/// SALSA (Section 2.3): hub positions (side 0) step forward, authority
/// positions (side 1) step backward, and a recommender ranks by
/// authority.
struct SalsaSteps {
  static constexpr uint32_t kSides = 2;
  static constexpr uint32_t kRankSide = 1;
  static constexpr uint64_t kRngSalt = 0x5A15A;
  static constexpr uint8_t kPersistTag = 2;
};

/// The side of the position after one on `side`. The constant 0 for one
/// side, so PageRank's loops fold every side test away.
template <typename Steps>
constexpr uint32_t NextSide(uint32_t side) {
  return Steps::kSides == 1 ? 0 : (side + 1) % Steps::kSides;
}

/// The number of edges a position on `side` of node v can step along:
/// its out-degree on side 0, its in-degree on side 1. `Graph` is DiGraph
/// or FrozenAdjacency.
template <typename Steps, typename Graph>
std::size_t SideDegree(const Graph& g, uint32_t side, NodeId v) {
  return (Steps::kSides == 1 || side == 0) ? g.OutDegree(v) : g.InDegree(v);
}

/// One uniformly drawn step from a position on `side` of node v.
template <typename Steps, typename Graph>
NodeId SideNeighbor(const Graph& g, uint32_t side, NodeId v, Rng* rng) {
  return (Steps::kSides == 1 || side == 0) ? g.RandomOutNeighbor(v, rng)
                                           : g.RandomInNeighbor(v, rng);
}

/// The walk store of Section 2 ("PageRank Store") and of Section 2.3
/// (SALSA): kSides * R random-walk segments per node, each continued
/// until its first epsilon-reset, plus inverted visit indexes so that the
/// segments crossing an updated node can be found and rerouted in time
/// proportional to the number that actually change.
///
/// Segment semantics (see DESIGN.md): segment k of u starts at u on side
/// k / R, and position p sits on side (k / R + p) mod kSides. At a side-0
/// position the walk stops with probability epsilon ("reset"); at any
/// position it stops if the node has no edge on its side ("dangling
/// exit", equivalent to a reset), and otherwise it steps to a uniformly
/// random neighbour on that side. For PageRank (one side) T is geometric
/// with mean (1-eps)/eps, so the expected node count is 1/eps; SALSA's
/// forward-start segments average 2/eps nodes.
///
/// Storage layout (DESIGN.md §2): a segment's path is one row of packed
/// 8-byte words (40-bit node, 24-bit index back-slot). Each side has its
/// own step index, dangling index and visit counters; an index row is a
/// node's packed (40-bit segment, 24-bit position) words with
/// swap-remove semantics. Every row is one block of the store's own
/// size-class pool (slab::BlockRows over slab::BlockPool) — no
/// per-segment or per-node heap vectors.
///
/// Incremental maintenance implements the coupling argument of
/// Proposition 2, once per ingestion window (RepairWindow; DESIGN.md §1
/// has the derivation), at every pivot of the window's net delta: the
/// sources of changed edges for side 0 (out-slots) and, for SALSA, their
/// targets for side 1 (in-slots) — Theorem 6's coupling at both ends of
/// an edge. Per pivot u with a net change on side s — d_after slots
/// after the window, r_x net removed copies of the slot to x, k net new
/// slots:
///  * a stored hop u->x breaks with probability r_x / (c_after(x) + r_x)
///    and redraws uniformly over all d_after slots (visits at u are
///    scanned; scans are counted separately);
///  * every side-s step visit at u switches with probability k / d_after
///    onto a uniformly chosen new slot — one Binomial draw plus Floyd
///    sampling, so work is proportional to the switches, not to the
///    visits; a break wins a tie with a switch at the same position;
///  * if u had no side-s slot before the window, every segment dangling
///    there resumes unconditionally through a new slot (this is where
///    Example 1's adversarial Omega(n) cost lives); if u has none after
///    it, broken visits become dangling tails.
/// All decisions are collected before any suffix is re-simulated, the
/// earliest affected position per segment wins, and suffixes are drawn
/// on the post-window graph after every repair is planned, so fresh
/// suffixes are never switched twice. OnEdgeInserted / OnEdgeRemoved are
/// one-event windows.
///
/// The member bodies live in walk_store.cc, instantiated for
/// PageRankSteps (WalkStore) and SalsaSteps (SalsaWalkStore).
template <typename Steps>
class BasicWalkStore {
 public:
  static constexpr uint32_t kSides = Steps::kSides;
  static constexpr uint32_t kRankSide = Steps::kRankSide;
  static constexpr uint32_t kNoSlot = slab::kNoLo;
  /// Whether RepairWindow reads the delta's in side (build it with
  /// WindowDelta::Build(applied, kRepairsInEdges)).
  static constexpr bool kRepairsInEdges = kSides > 1;

  /// Why a segment ended: kEndReset when the reset fired, DanglingEnd(s)
  /// = 1 + s when its tail, on side s, had no edge to step along.
  static constexpr uint8_t kEndReset = 0;
  static constexpr uint8_t DanglingEnd(uint32_t side) {
    return static_cast<uint8_t>(1 + side);
  }

  /// Read-only view of one stored segment: a span over its row's packed
  /// words. Invalidated by any mutating call on the store.
  class SegmentView {
   public:
    SegmentView(std::span<const uint64_t> words, uint8_t end)
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
    /// kEndReset or DanglingEnd(side of the tail).
    uint8_t end() const { return end_; }

   private:
    std::span<const uint64_t> words_;
    uint8_t end_;
  };

  BasicWalkStore() = default;

  /// Generates kSides * R segments per node of `g`. Estimates are
  /// maintained incrementally afterwards via RepairWindow.
  ///
  /// Sharded mode (`shard_count` > 1): the store generates segments only
  /// for *owned* source nodes — those with ShardOfNode(u, shard_count) ==
  /// shard_index — leaving the other segment rows empty. Segment ids stay
  /// global (u * segments_per_node() + k), so GetSegment addressing is
  /// uniform across shards, and all repair paths are driven by the
  /// inverted indexes (which list only owned-walk visits), so the
  /// incremental update code is shard-oblivious. Visit counts then cover
  /// only the owned walks; the sharded engine merges them across shards.
  void Init(const DiGraph& g, std::size_t walks_per_node, double epsilon,
            uint64_t seed, uint32_t shard_index = 0,
            uint32_t shard_count = 1);

  /// Sets the store's parameters without generating segments: Init's
  /// first step, and the recovery path's, whose LoadFrom then requires
  /// the saved parameters to match.
  void Configure(std::size_t walks_per_node, double epsilon,
                 uint32_t shard_index, uint32_t shard_count);

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
  std::size_t num_nodes() const { return visits_[0].size(); }
  std::size_t num_segments() const { return paths_.num_rows(); }

  /// X_v: visits to v on `side` across all stored segments.
  int64_t VisitCount(NodeId v, uint32_t side = kRankSide) const {
    return visits_[side][v];
  }
  int64_t TotalVisits(uint32_t side = kRankSide) const {
    return total_visits_[side];
  }

  /// The paper's estimator pi~_v = X_v / (nR/eps)  (Theorem 1).
  double Estimate(NodeId v) const
    requires(kSides == 1)
  {
    const double denom = static_cast<double>(num_nodes()) *
                         static_cast<double>(walks_per_node_) / epsilon_;
    return static_cast<double>(visits_[0][v]) / denom;
  }
  /// X_v / total visits on `side`: sums to exactly 1. PageRank's matches
  /// the power-iteration baseline's dangling-to-reset semantics even on
  /// graphs with dangling nodes; SALSA's side 1 is the authority score
  /// and side 0 the hub score (baseline/salsa_exact.h).
  double NormalizedEstimate(NodeId v, uint32_t side = kRankSide) const;
  /// All normalized estimates of `side` (O(n)).
  std::vector<double> NormalizedEstimates(uint32_t side = kRankSide) const;

  /// Number of stored-walk visits on `side` at v that have an outgoing
  /// step; on side 0 this is the W(v) counter of Section 2.2 used for
  /// the store-call gating.
  std::size_t StepVisitCount(NodeId v, uint32_t side = 0) const {
    return steps_[side].Size(v);
  }
  std::size_t DanglingCount(NodeId v, uint32_t side = 0) const {
    return dangling_[side].Size(v);
  }

  /// The side of position `pos` of segment `seg` (a terminal position
  /// reports the side its step would have had).
  uint32_t SideOf(uint64_t seg, uint32_t pos) const {
    return kSides == 1 ? 0 : (StartSide(seg) + pos) % kSides;
  }

  /// Read access to the k-th stored segment of node u (k <
  /// segments_per_node(); it starts on side k / R). The view is
  /// invalidated by any subsequent mutation of the store.
  SegmentView GetSegment(NodeId u, std::size_t k) const {
    const uint64_t seg = SegId(u, k);
    return SegmentView(paths_.RowSpan(seg), seg_end_[seg]);
  }

  /// Stored segment rows per node in the global segment-id addressing
  /// (SegId(u, k) = u * segments_per_node() + k): R per side.
  std::size_t segments_per_node() const { return kSides * walks_per_node_; }

  /// Raw packed path words of segment `seg` — the segment-snapshot
  /// publisher's bulk-copy source (store/segment_snapshot.h).
  std::span<const uint64_t> SegmentWords(uint64_t seg) const {
    return paths_.RowSpan(seg);
  }

  /// The allocator of every row (paths and index rows): its live bytes
  /// are the rows' blocks, its held bytes what it took from operator new.
  const slab::BlockPool& pool() const { return pool_; }

  /// Calls fn(seg) once for every segment the last RepairWindow
  /// repaired, in the order it repaired them: the window's own repair
  /// plan (the coupling of Proposition 2), which the snapshot publisher
  /// copies (store/segment_snapshot.h). An empty window leaves an empty
  /// plan; any later repair replaces it.
  template <typename Fn>
  void ForEachRepairedSegment(const Fn& fn) const {
    for (const PendingRepair& plan : scratch_.pending()) fn(plan.seg);
  }

  /// Repairs every stored walk for one applied window: `g` is the
  /// post-window graph and `delta` the window's net change (with its in
  /// side iff kRepairsInEdges). `rng` drives the coupling randomness.
  WalkUpdateStats RepairWindow(const DiGraph& g, const WindowDelta& delta,
                               Rng* rng);

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

  /// Durability hooks (DESIGN.md §8): the store as rows. The scalars
  /// and the RNG state; then every owned segment in ascending (source,
  /// k) as its u32 length, end reason and u32 node ids; then every index
  /// row (the index row sets in IndexRowSet order, per node) as its u32
  /// size and
  /// (segment, position) words in row order, which is state: Floyd
  /// sampling and the break scan consume the RNG in row order
  /// (CollectPivot). Back-slots, visit counters, totals, the owned
  /// source count and the rows of unowned segments are derived, and the
  /// rows' blocks are the pool's business; none is written. The transient
  /// repair scratch (the last window's plan included) is NOT state: no
  /// later repair reads it.
  template <typename Sink>
  void SaveTo(Sink* w) const {
    w->Pod(static_cast<uint64_t>(walks_per_node_));
    w->Pod(epsilon_);
    w->Pod(static_cast<uint8_t>(policy_));
    w->Pod(rng_.State());
    w->Pod(shard_index_);
    w->Pod(shard_count_);
    std::vector<NodeId> ids;  // one segment at a time
    for (NodeId u = 0; u < num_nodes(); ++u) {
      if (!OwnsSource(u)) continue;
      for (std::size_t k = 0; k < segments_per_node(); ++k) {
        const uint64_t seg = SegId(u, k);
        const std::span<const uint64_t> words = paths_.RowSpan(seg);
        w->Pod(static_cast<uint32_t>(words.size()));
        w->Pod(seg_end_[seg]);
        ids.resize(words.size());
        for (std::size_t p = 0; p < words.size(); ++p) {
          ids[p] = static_cast<NodeId>(slab::Hi(words[p]));
        }
        w->Span(std::span<const NodeId>(ids));
      }
    }
    for (uint32_t i = 0; i < kIndexRowSets; ++i) {
      const slab::BlockRows& index = IndexRowSet(i);
      for (NodeId v = 0; v < num_nodes(); ++v) {
        w->Pod(index.Size(v));
        w->Span(index.RowSpan(v));
      }
    }
  }

  /// Restores SaveTo's rows into a store Configure()d with the manifest's
  /// parameters, laying them out through BuildFromFlatPaths like Init.
  /// `g` is the restored graph. Returns false (caller maps to
  /// Corruption) on truncation, on parameters that disagree with
  /// Configure's, or on rows no writer could have produced: an id past
  /// the graph, a segment that does not start at its source, an end
  /// reason its tail cannot have, or an index entry that does not
  /// register a position exactly once on its own side and node.
  template <typename Src>
  bool LoadFrom(Src* r, const DiGraph& g) {
    uint64_t wpn = 0;
    double epsilon = 0.0;
    uint8_t policy = 0;
    std::array<uint64_t, 4> rng_state{};
    uint32_t shard_index = 0, shard_count = 0;
    if (!r->Pod(&wpn) || !r->Pod(&epsilon) || !r->Pod(&policy) ||
        !r->Pod(&rng_state) || !r->Pod(&shard_index) ||
        !r->Pod(&shard_count)) {
      return false;
    }
    if (wpn != walks_per_node_ || epsilon != epsilon_ ||
        policy != static_cast<uint8_t>(policy_) ||
        shard_index != shard_index_ || shard_count != shard_count_) {
      return r->Fail("walk store parameters disagree with the manifest");
    }
    rng_.SetState(rng_state);
    const std::size_t n = g.num_nodes();
    std::vector<NodeId> nodes;
    std::vector<uint32_t> lengths(n * segments_per_node(), 0);
    std::vector<uint8_t> ends(lengths.size(), kEndReset);
    owned_sources_ = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (!OwnsSource(u)) continue;
      ++owned_sources_;
      for (std::size_t k = 0; k < segments_per_node(); ++k) {
        const uint64_t seg = SegId(u, k);
        uint32_t len = 0;
        const std::size_t at = nodes.size();
        if (!r->Pod(&len) || !r->Pod(&ends[seg]) ||
            !r->Append(len, &nodes)) {
          return false;
        }
        if (len == 0 || len >= kNoSlot || nodes[at] != u) {
          return r->Fail("walk segment does not start at its source");
        }
        for (std::size_t p = at + 1; p < nodes.size(); ++p) {
          if (nodes[p] >= n) return r->Fail("walk node past the graph");
        }
        // A reset fires only before a side-0 step; a dangling tail sits
        // on its own side, at a node with no edge there.
        const uint32_t side = SideOf(seg, len - 1);
        const bool end_ok =
            ends[seg] == kEndReset
                ? side == 0
                : ends[seg] == DanglingEnd(side) &&
                      SideDegree<Steps>(g, side, nodes.back()) == 0;
        if (!end_ok) {
          return r->Fail("walk segment end disagrees with its tail");
        }
        lengths[seg] = len;
      }
    }
    IndexRows rows;
    for (uint32_t i = 0; i < kIndexRowSets; ++i) {
      rows.sizes[i].resize(n);
      for (NodeId v = 0; v < n; ++v) {
        if (!r->Pod(&rows.sizes[i][v]) ||
            !r->Append(rows.sizes[i][v], &rows.words[i])) {
          return false;
        }
      }
    }
    return BuildFromFlatPaths(n, nodes, lengths, ends, &rows) ||
           r->Fail("walk index rows disagree with the segments");
  }

 private:
  uint64_t SegId(NodeId u, std::size_t k) const {
    return static_cast<uint64_t>(u) * kSides * walks_per_node_ + k;
  }
  /// Segment k of a node starts on side k / R. Derived, not stored: the
  /// one divide is paid once per segment operation, never per step.
  uint32_t StartSide(uint64_t seg) const {
    return kSides == 1 ? 0
                       : static_cast<uint32_t>((seg / walks_per_node_) %
                                               kSides);
  }
  /// `side` as the compiler should see it: the constant 0 for one side.
  static constexpr uint32_t Fold(uint32_t side) {
    return kSides == 1 ? 0 : side;
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
  uint8_t End(uint64_t seg) const { return seg_end_[seg]; }

  /// Registers the entry at `pos` of `seg`, on `side`, into that side's
  /// step index.
  void RegisterStep(uint64_t seg, uint32_t pos, uint32_t side);
  /// Removes a step registration (swap-remove with backpointer fixup).
  void UnregisterStep(uint64_t seg, uint32_t pos, uint32_t side);
  void RegisterDangling(uint64_t seg, uint32_t pos, uint32_t side);
  /// Removes the dangling tail at `pos`; its side follows from End(seg).
  void UnregisterDangling(uint64_t seg, uint32_t pos);
  /// slab::RemoveIndexEntry bound to this store's path rows.
  void RemoveIndexAt(slab::BlockRows* index, NodeId node, uint32_t slot,
                     uint64_t seg, uint32_t pos) {
    slab::RemoveIndexEntry(index, &paths_, node, slot, seg, pos);
  }

  /// Drops all path entries with index > keep_pos (counters + index).
  void TruncateAfter(uint64_t seg, uint32_t keep_pos);

  /// Truncates the segment to its bare source node with a pending tail
  /// (kRedoFromSource repairs).
  void ResetSegmentToSource(uint64_t seg);

  /// A segment whose tail is pending re-extension. `start` is the tail
  /// position (unregistered) and `side` its side; `forced` !=
  /// kInvalidNode makes the first step go there without a reset draw
  /// (the original draw survived).
  struct PendingWalk {
    uint64_t seg = 0;
    NodeId cur = kInvalidNode;
    NodeId forced = kInvalidNode;
    uint32_t start = 0;
    uint32_t side = 0;
  };

  /// Drains `walk_queue_`: re-simulates each pending walk to completion
  /// in queue order (all draws of walk i precede walk i+1's; the stream
  /// is deterministic given the RNG state). Returns total fresh steps.
  uint64_t ExtendPendingWalks(const DiGraph& g, Rng* rng);

  /// Registration sweep for a finished walk whose tail position `start`
  /// sits on `side`: end reason, step/dangling index entries and visit
  /// counters for positions (start, end), then the path row's trim.
  void FinishWalk(uint64_t seg, uint32_t start, uint32_t side, uint8_t end);

  /// The index row sets, steps then dangling, each side in order: the
  /// checkpoint's order.
  static constexpr uint32_t kIndexRowSets = 2 * kSides;
  const slab::BlockRows& IndexRowSet(uint32_t i) const {
    return i < kSides ? steps_[i] : dangling_[i - kSides];
  }
  slab::BlockRows& IndexRowSet(uint32_t i) {
    return i < kSides ? steps_[i] : dangling_[i - kSides];
  }

  /// Saved index rows, per row set: each node's row size, and the rows'
  /// packed (segment, position) words concatenated in node order.
  struct IndexRows {
    std::array<std::vector<uint32_t>, kIndexRowSets> sizes;
    std::array<std::vector<uint64_t>, kIndexRowSets> words;
  };

  /// Lays out segments and their indexes from flat path data: `nodes`
  /// holds the concatenated paths, row r covering the next lengths[r]
  /// entries. Without `rows` (Init) each index row holds its positions
  /// in segment order; with them (LoadFrom) each holds its saved
  /// entries in saved order, and false means an entry does not
  /// register a position exactly once on its own side and node.
  /// Either way the visit counters are recounted from the paths. Every
  /// row is sized once, before it is filled (BlockRows::Reset).
  bool BuildFromFlatPaths(std::size_t n, const std::vector<NodeId>& nodes,
                          const std::vector<uint32_t>& lengths,
                          const std::vector<uint8_t>& ends,
                          const IndexRows* rows = nullptr);

  // --- window-repair scratch (see RepairWindow) ---------------------
  /// One scheduled segment repair: the earliest affected position per
  /// segment wins; everything after it is re-simulated. `side` is the
  /// position's side; switches and resumes land on that side of the
  /// delta, at added[added_begin, +added_count).
  struct PendingRepair {
    uint64_t seg = 0;
    uint32_t pos = 0;
    uint32_t added_begin = 0;
    uint32_t added_count = 0;
    slab::RepairKind kind = slab::RepairKind::kSwitch;
    uint8_t side = 0;
  };

  /// Collects the break, switch and resume decisions at one pivot of the
  /// delta's `side` (out-slots for side 0, in-slots for side 1).
  void CollectPivot(const DiGraph& g, uint32_t side,
                    const WindowDelta::Side& pivots,
                    const WindowDelta::Pivot& p, Rng* rng,
                    WalkUpdateStats* stats);

  std::size_t walks_per_node_ = 0;
  double epsilon_ = 0.2;
  UpdatePolicy policy_ = UpdatePolicy::kRerouteFromVisit;
  Rng rng_{0};
  uint32_t shard_index_ = 0;
  uint32_t shard_count_ = 1;
  std::size_t owned_sources_ = 0;

  /// The blocks of every row below.
  slab::BlockPool pool_;
  /// Packed (node, slot) path entries; row = segment.
  slab::BlockRows paths_;
  /// Per-segment end reason (uint8_t to keep the path words pure).
  std::vector<uint8_t> seg_end_;
  /// Per side: inverted index of non-terminal visits; row = node, words
  /// = (seg, pos).
  std::array<slab::BlockRows, kSides> steps_;
  /// Per side: segments terminally dangling at each node; row = node.
  std::array<slab::BlockRows, kSides> dangling_;
  std::array<std::vector<int64_t>, kSides> visits_;
  std::array<int64_t, kSides> total_visits_{};

  // Reusable window-repair scratch: zero steady-state allocation
  // (slab::RepairScratch, repair_scratch.h).
  slab::RepairScratch<PendingRepair> scratch_;
  /// Post-window copies of each removed neighbour at the current pivot.
  std::vector<uint32_t> remaining_;
  std::vector<PendingWalk> walk_queue_;
  WindowDelta single_;  ///< OnEdgeInserted / OnEdgeRemoved windows
};

extern template class BasicWalkStore<PageRankSteps>;
extern template class BasicWalkStore<SalsaSteps>;

using WalkStore = BasicWalkStore<PageRankSteps>;
using SalsaWalkStore = BasicWalkStore<SalsaSteps>;

}  // namespace fastppr

#endif  // FASTPPR_STORE_WALK_STORE_H_
