#ifndef FASTPPR_CORE_INCREMENTAL_PAGERANK_H_
#define FASTPPR_CORE_INCREMENTAL_PAGERANK_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/types.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/random.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Configuration for the Monte Carlo engines.
struct MonteCarloOptions {
  /// R: stored walk segments per node and side (2R total for SALSA).
  /// Theorem 1 gives sharp concentration already at R = 1; Section 3
  /// wants R > q ln n for the personalized fetch bounds.
  std::size_t walks_per_node = 10;
  /// Reset probability. The paper's experiments use 0.2.
  double epsilon = 0.2;
  /// Segment repair strategy (Section 2.2 offers both; see UpdatePolicy).
  UpdatePolicy update_policy = UpdatePolicy::kRerouteFromVisit;
  uint64_t seed = 42;
  /// Sharded deployment (engine/sharded_engine.h): the engine stores walk
  /// segments only for source nodes in shard `shard_index` of
  /// `shard_count` (partitioned by ShardOfNode). The default 0-of-1 is
  /// the flat, unsharded engine owning every node.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
};

/// The engines' initial load: a graph over `initial`'s nodes that holds
/// its edges, re-added by ascending source in slot order into an empty
/// DiGraph. Never a copy: `initial`'s in-slot order and arena layout
/// follow its own mutation history, while this load fixes them for
/// every caller, so the graph bytes, SALSA's backward draws and every
/// RNG stream depend only on `initial`'s out-rows.
std::shared_ptr<DiGraph> LoadInitialGraph(const DiGraph& initial);

/// The paper's incremental system (Section 2): a DiGraph holding the
/// evolving follow graph plus a BasicWalkStore holding the walk segments,
/// kept consistent on every edge arrival and departure. For PageRank
/// (IncrementalPageRank) the total cost is O(nR ln m / eps^2) under
/// random-order arrivals (Theorem 4); for SALSA (IncrementalSalsa, Section
/// 2.3) the alternating walks are repaired at both endpoints of every
/// changed edge, within 16 nR ln m / eps^2 (Theorem 6). Scores are the
/// visit frequencies of the policy's rank side.
template <typename Steps>
class BasicIncrementalEngine {
 public:
  using WalkSteps = Steps;
  using Store = BasicWalkStore<Steps>;
  static constexpr uint32_t kRankSide = Steps::kRankSide;

  /// An engine over an initially empty graph with `num_nodes` nodes.
  BasicIncrementalEngine(std::size_t num_nodes,
                         const MonteCarloOptions& opts);

  /// An engine bootstrapped from an existing graph (LoadInitialGraph;
  /// the initialization cost is the nR/eps segment-generation cost).
  BasicIncrementalEngine(const DiGraph& initial,
                         const MonteCarloOptions& opts);

  /// Shared-graph deployment (engine/sharded_engine.h): attaches to a
  /// graph the caller shares instead of owning a private one. Walk
  /// segments are generated from its current edges. The caller owns the
  /// mutation schedule: graph mutations and this engine's Repair* calls
  /// must never overlap (the single-writer epoch contract; see
  /// DESIGN.md section 5).
  BasicIncrementalEngine(std::shared_ptr<DiGraph> graph,
                         const MonteCarloOptions& opts);

  /// Recovery construction (store/checkpoint.h): attaches to the graph
  /// WITHOUT generating walk segments — the caller's LoadFrom replaces
  /// every member immediately, so the nR/eps generation cost would be
  /// pure waste. Useless outside recovery: the walk store starts empty.
  struct ForRecovery {};
  BasicIncrementalEngine(ForRecovery, std::shared_ptr<DiGraph> graph,
                         const MonteCarloOptions& opts);

  const MonteCarloOptions& options() const { return options_; }
  std::size_t num_nodes() const { return graph_->num_nodes(); }
  std::size_t num_edges() const { return graph_->num_edges(); }

  /// Adds the edge to the graph and repairs the affected walk segments.
  /// Returns the error of the underlying graph mutation if the edge is
  /// invalid; the stats of the repair are in last_event_stats().
  Status AddEdge(NodeId src, NodeId dst);

  /// Removes the edge and repairs the affected segments.
  Status RemoveEdge(NodeId src, NodeId dst);

  Status ApplyEvent(const EdgeEvent& event);

  /// Windowed ingestion: applies the events to the graph in order,
  /// stopping at the first invalid one, then repairs the walks once for
  /// the applied prefix's net change (the window coupling of DESIGN.md
  /// §1) — whatever the order of inserts and deletes inside the window. Bit-identical (same RNG stream) to the sequential
  /// AddEdge/RemoveEdge for a 1-event span. On a failed mutation the
  /// applied prefix is repaired before the error is returned.
  /// last_event_stats() holds the stats of the whole window afterwards.
  Status ApplyEvents(std::span<const EdgeEvent> events);

  /// Repair-only API for shared-graph deployments: the orchestrator has
  /// already applied a window's prefix to the shared graph and built its
  /// net delta (with the in side iff kRepairsInEdges); repair this
  /// engine's walks once against the (now frozen) post-window graph. last_event_stats() becomes the window's stats. Consumes the
  /// identical RNG stream as the owning-graph ApplyEvents path on the
  /// same window.
  void RepairWindow(const WindowDelta& delta);
  static constexpr bool kRepairsInEdges = Store::kRepairsInEdges;

  /// pi~_v with the paper's nR/eps normalization (Theorem 1).
  double Estimate(NodeId v) const
    requires(Steps::kSides == 1)
  {
    return walks_.Estimate(v);
  }
  /// Visit-frequency estimate on `side`; sums to 1. PageRank's matches
  /// the power-iteration baseline exactly in expectation (dangling
  /// handled as reset); SALSA's rank side is the authority score,
  /// comparable to SalsaExact, and side 0 the hub score.
  double NormalizedEstimate(NodeId v, uint32_t side = kRankSide) const {
    return walks_.NormalizedEstimate(v, side);
  }
  std::vector<double> NormalizedEstimates(uint32_t side = kRankSide) const {
    return walks_.NormalizedEstimates(side);
  }

  /// Nodes with the k highest visit counts on `side`, descending.
  std::vector<NodeId> TopK(std::size_t k, uint32_t side = kRankSide) const;

  /// Per-node count backing global ranking (rank-side visits X_v). In a
  /// sharded deployment each shard engine reports the visits of its
  /// owned walks only; the sharded engine merges across shards.
  int64_t RankingCount(NodeId v) const { return walks_.VisitCount(v); }
  int64_t RankingTotal() const { return walks_.TotalVisits(); }
  /// Shard-aware merge hook: adds this engine's per-node rank-side visit
  /// counts into `acc` (must be sized num_nodes()).
  void AccumulateRankingCounts(std::vector<int64_t>* acc) const;

  /// Stats of the most recent AddEdge/RemoveEdge.
  const WalkUpdateStats& last_event_stats() const { return last_stats_; }
  /// Accumulated stats over the engine's lifetime.
  const WalkUpdateStats& lifetime_stats() const { return lifetime_stats_; }
  uint64_t arrivals() const { return arrivals_; }
  uint64_t removals() const { return removals_; }

  const Store& walk_store() const { return walks_; }
  const DiGraph& graph() const { return *graph_; }

  /// Test hook: full invariant audit.
  void CheckConsistency() const { walks_.CheckConsistency(*graph_); }

  /// Engine-type tag stored in durable manifests (store/wal.h) so
  /// recovery can refuse to rehydrate a checkpoint into the wrong
  /// engine class.
  static constexpr uint8_t kPersistTag = Steps::kPersistTag;

  /// Durability hooks (DESIGN.md §8): this engine's private state — walk
  /// store, event-loop RNG, stats, arrival/removal counters. The shared
  /// graph is serialized once by the owning ShardedEngine, not here.
  template <typename Sink>
  void SaveTo(Sink* w) const {
    walks_.SaveTo(w);
    w->Pod(rng_.State());
    w->Pod(last_stats_);
    w->Pod(lifetime_stats_);
    w->Pod(arrivals_);
    w->Pod(removals_);
  }
  template <typename Src>
  bool LoadFrom(Src* r) {
    std::array<uint64_t, 4> rng_state{};
    if (!walks_.LoadFrom(r) || !r->Pod(&rng_state) ||
        !r->Pod(&last_stats_) || !r->Pod(&lifetime_stats_) ||
        !r->Pod(&arrivals_) || !r->Pod(&removals_)) {
      return false;
    }
    rng_.SetState(rng_state);
    if (walks_.num_nodes() != graph_->num_nodes()) {
      return r->Fail("walk store and graph disagree on node count");
    }
    return true;
  }

 private:
  MonteCarloOptions options_;
  std::shared_ptr<DiGraph> graph_;
  Store walks_;
  Rng rng_;
  WalkUpdateStats last_stats_;
  WalkUpdateStats lifetime_stats_;
  uint64_t arrivals_ = 0;
  uint64_t removals_ = 0;
  WindowDelta delta_;  ///< ApplyEvents scratch
};

extern template class BasicIncrementalEngine<PageRankSteps>;
extern template class BasicIncrementalEngine<SalsaSteps>;

using IncrementalPageRank = BasicIncrementalEngine<PageRankSteps>;
using IncrementalSalsa = BasicIncrementalEngine<SalsaSteps>;

}  // namespace fastppr

#endif  // FASTPPR_CORE_INCREMENTAL_PAGERANK_H_
