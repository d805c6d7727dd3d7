#ifndef FASTPPR_CORE_INCREMENTAL_SALSA_H_
#define FASTPPR_CORE_INCREMENTAL_SALSA_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/graph/digraph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/types.h"
#include "fastppr/store/salsa_walk_store.h"
#include "fastppr/store/social_store.h"
#include "fastppr/util/random.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// The SALSA counterpart of IncrementalPageRank (Section 2.3): maintains 2R
/// alternating forward/backward walk segments per node under edge arrivals
/// and departures; total update work over m arrivals is bounded by
/// 16 nR ln m / eps^2 (Theorem 6).
class IncrementalSalsa {
 public:
  IncrementalSalsa(std::size_t num_nodes, const MonteCarloOptions& opts);
  IncrementalSalsa(const DiGraph& initial, const MonteCarloOptions& opts);

  /// Shared-store deployment (engine/sharded_engine.h): attaches to an
  /// externally owned Social Store; see IncrementalPageRank's twin
  /// constructor for the single-writer contract.
  IncrementalSalsa(std::shared_ptr<SocialStore> social,
                   const MonteCarloOptions& opts);

  /// Recovery construction: attaches without generating walk segments
  /// (see IncrementalPageRank::ForRecovery).
  struct ForRecovery {};
  IncrementalSalsa(ForRecovery, std::shared_ptr<SocialStore> social,
                   const MonteCarloOptions& opts);

  const MonteCarloOptions& options() const { return options_; }
  std::size_t num_nodes() const { return social_->num_nodes(); }
  std::size_t num_edges() const { return social_->num_edges(); }

  Status AddEdge(NodeId src, NodeId dst);
  Status RemoveEdge(NodeId src, NodeId dst);
  Status ApplyEvent(const EdgeEvent& event);

  /// Windowed ingestion twin of IncrementalPageRank::ApplyEvents: one
  /// repair per window, at both endpoints of every net change. A 1-event
  /// span is bit-identical to the sequential call.
  Status ApplyEvents(std::span<const EdgeEvent> events);

  /// Repair-only API for shared-store deployments (see
  /// IncrementalPageRank for the contract). The delta must carry its in
  /// side.
  void RepairWindow(const WindowDelta& delta);
  static constexpr bool kRepairsInEdges = SalsaWalkStore::kRepairsInEdges;

  /// Authority-side visit frequency (comparable to SalsaExact).
  double AuthorityEstimate(NodeId v) const {
    return walks_.NormalizedAuthority(v);
  }
  double HubEstimate(NodeId v) const { return walks_.NormalizedHub(v); }

  /// Nodes with the k highest authority estimates, descending.
  std::vector<NodeId> TopKAuthorities(std::size_t k) const;

  /// Per-node count backing global ranking (authority-side visits; a
  /// recommender ranks by authority). Sharded deployments merge these
  /// across shards.
  int64_t RankingCount(NodeId v) const { return walks_.AuthorityVisits(v); }
  int64_t RankingTotal() const { return walks_.TotalAuthorityVisits(); }
  /// Shard-aware merge hook: adds this engine's per-node authority visit
  /// counts into `acc` (must be sized num_nodes()).
  void AccumulateRankingCounts(std::vector<int64_t>* acc) const;

  const WalkUpdateStats& last_event_stats() const { return last_stats_; }
  const WalkUpdateStats& lifetime_stats() const { return lifetime_stats_; }
  uint64_t arrivals() const { return arrivals_; }
  uint64_t removals() const { return removals_; }

  SocialStore& social_store() { return *social_; }
  const SalsaWalkStore& walk_store() const { return walks_; }
  /// Writer-side access for the snapshot publisher (dirty-feed draining).
  SalsaWalkStore* mutable_walk_store() { return &walks_; }
  const DiGraph& graph() const { return social_->graph(); }

  void CheckConsistency() const {
    walks_.CheckConsistency(social_->graph());
  }

  /// Engine-type tag stored in durable manifests (store/wal.h).
  static constexpr uint8_t kPersistTag = 2;

  /// Durability hooks (DESIGN.md §8); see IncrementalPageRank's twin.
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
  SalsaWalkStore walks_;
  Rng rng_;
  WalkUpdateStats last_stats_;
  WalkUpdateStats lifetime_stats_;
  uint64_t arrivals_ = 0;
  uint64_t removals_ = 0;
  WindowDelta delta_;  ///< ApplyEvents scratch
};

}  // namespace fastppr

#endif  // FASTPPR_CORE_INCREMENTAL_SALSA_H_
