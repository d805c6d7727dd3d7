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
#include "fastppr/store/social_store.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/random.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Configuration for the Monte Carlo engines.
struct MonteCarloOptions {
  /// R: stored walk segments per node (2R total for SALSA). Theorem 1
  /// gives sharp concentration already at R = 1; Section 3 wants
  /// R > q ln n for the personalized fetch bounds.
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

/// The paper's incremental PageRank system (Section 2): a SocialStore
/// holding the evolving follow graph plus a WalkStore ("PageRank Store")
/// holding R walk segments per node, kept consistent on every edge arrival
/// and departure at O(nR ln m / eps^2) *total* cost under random-order
/// arrivals (Theorem 4).
class IncrementalPageRank {
 public:
  /// An engine over an initially empty graph with `num_nodes` nodes.
  IncrementalPageRank(std::size_t num_nodes, const MonteCarloOptions& opts);

  /// An engine bootstrapped from an existing graph (copies the edges; the
  /// initialization cost is the nR/eps segment-generation cost).
  IncrementalPageRank(const DiGraph& initial, const MonteCarloOptions& opts);

  /// Shared-store deployment (engine/sharded_engine.h): attaches to an
  /// externally owned Social Store instead of creating a private one.
  /// Walk segments are generated from the store's current graph. The
  /// caller owns the mutation schedule: graph mutations and this
  /// engine's Repair* calls must never overlap (the single-writer epoch
  /// contract; see DESIGN.md section 5).
  IncrementalPageRank(std::shared_ptr<SocialStore> social,
                      const MonteCarloOptions& opts);

  /// Recovery construction (store/checkpoint.h): attaches to the store
  /// WITHOUT generating walk segments — the caller's LoadFrom replaces
  /// every member immediately, so the nR/eps generation cost would be
  /// pure waste. Useless outside recovery: the store starts empty.
  struct ForRecovery {};
  IncrementalPageRank(ForRecovery, std::shared_ptr<SocialStore> social,
                      const MonteCarloOptions& opts);

  const MonteCarloOptions& options() const { return options_; }
  std::size_t num_nodes() const { return social_->num_nodes(); }
  std::size_t num_edges() const { return social_->num_edges(); }

  /// Adds the edge to the Social Store and repairs the affected walk
  /// segments. Returns the error of the underlying graph mutation if the
  /// edge is invalid; the stats of the repair are in last_event_stats().
  Status AddEdge(NodeId src, NodeId dst);

  /// Removes the edge and repairs the affected segments.
  Status RemoveEdge(NodeId src, NodeId dst);

  Status ApplyEvent(const EdgeEvent& event);

  /// Windowed ingestion: applies the events to the Social Store in
  /// order, stopping at the first invalid one, then repairs the walks
  /// once for the applied prefix's net change (the window coupling of
  /// DESIGN.md §1) — whatever the order of inserts and deletes inside
  /// the window. Bit-identical (same RNG stream) to the sequential
  /// AddEdge/RemoveEdge for a 1-event span. On a failed mutation the
  /// applied prefix is repaired before the error is returned.
  /// last_event_stats() holds the stats of the whole window afterwards.
  Status ApplyEvents(std::span<const EdgeEvent> events);

  /// Repair-only API for shared-store deployments: the orchestrator has
  /// already applied a window's prefix to the shared Social Store and
  /// built its net delta (with the in side iff kRepairsInEdges); repair
  /// this engine's walks once against the (now frozen) post-window
  /// graph. last_event_stats() becomes the window's stats. Consumes the
  /// identical RNG stream as the owning-store ApplyEvents path on the
  /// same window.
  void RepairWindow(const WindowDelta& delta);
  static constexpr bool kRepairsInEdges = WalkStore::kRepairsInEdges;

  /// pi~_v with the paper's nR/eps normalization (Theorem 1).
  double Estimate(NodeId v) const { return walks_.Estimate(v); }
  /// Visit-frequency estimate; sums to 1 and matches the power-iteration
  /// baseline exactly in expectation (dangling handled as reset).
  double NormalizedEstimate(NodeId v) const {
    return walks_.NormalizedEstimate(v);
  }
  std::vector<double> NormalizedEstimates() const {
    return walks_.NormalizedEstimates();
  }

  /// Nodes with the k highest PageRank estimates, descending.
  std::vector<NodeId> TopK(std::size_t k) const;

  /// Per-node count backing global ranking (X_v). In a sharded
  /// deployment each shard engine reports the visits of its owned walks
  /// only; the sharded engine merges across shards.
  int64_t RankingCount(NodeId v) const { return walks_.VisitCount(v); }
  int64_t RankingTotal() const { return walks_.TotalVisits(); }
  /// Shard-aware merge hook: adds this engine's per-node visit counts
  /// into `acc` (must be sized num_nodes()).
  void AccumulateRankingCounts(std::vector<int64_t>* acc) const;

  /// Stats of the most recent AddEdge/RemoveEdge.
  const WalkUpdateStats& last_event_stats() const { return last_stats_; }
  /// Accumulated stats over the engine's lifetime.
  const WalkUpdateStats& lifetime_stats() const { return lifetime_stats_; }
  uint64_t arrivals() const { return arrivals_; }
  uint64_t removals() const { return removals_; }

  SocialStore& social_store() { return *social_; }
  const SocialStore& social_store() const { return *social_; }
  const WalkStore& walk_store() const { return walks_; }
  /// Writer-side access for the snapshot publisher (dirty-feed draining).
  WalkStore* mutable_walk_store() { return &walks_; }
  const DiGraph& graph() const { return social_->graph(); }

  /// Test hook: full invariant audit.
  void CheckConsistency() const {
    walks_.CheckConsistency(social_->graph());
  }

  /// Engine-type tag stored in durable manifests (store/wal.h) so
  /// recovery can refuse to rehydrate a checkpoint into the wrong
  /// engine class.
  static constexpr uint8_t kPersistTag = 1;

  /// Durability hooks (DESIGN.md §8): this engine's private state — walk
  /// store, event-loop RNG, stats, arrival/removal counters. The shared
  /// SocialStore is serialized once by the owning ShardedEngine, not
  /// here.
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
    if (walks_.num_nodes() != social_->num_nodes()) {
      return r->Fail("walk store and social store disagree on node count");
    }
    return true;
  }

 private:
  MonteCarloOptions options_;
  std::shared_ptr<SocialStore> social_;
  WalkStore walks_;
  Rng rng_;
  WalkUpdateStats last_stats_;
  WalkUpdateStats lifetime_stats_;
  uint64_t arrivals_ = 0;
  uint64_t removals_ = 0;
  WindowDelta delta_;  ///< ApplyEvents scratch
};

}  // namespace fastppr

#endif  // FASTPPR_CORE_INCREMENTAL_PAGERANK_H_
