#include "fastppr/core/incremental_pagerank.h"

#include <utility>

#include "fastppr/core/ranking.h"
#include "fastppr/util/check.h"

namespace fastppr {

IncrementalPageRank::IncrementalPageRank(std::size_t num_nodes,
                                         const MonteCarloOptions& opts)
    : options_(opts), social_(std::make_shared<SocialStore>(num_nodes)),
      rng_(opts.seed ^ 0x1CEB00DAULL) {
  walks_.set_update_policy(opts.update_policy);
  walks_.Init(social_->graph(), opts.walks_per_node, opts.epsilon,
              opts.seed, opts.shard_index, opts.shard_count);
}

IncrementalPageRank::IncrementalPageRank(const DiGraph& initial,
                                         const MonteCarloOptions& opts)
    : options_(opts),
      social_(std::make_shared<SocialStore>(initial.num_nodes())),
      rng_(opts.seed ^ 0x1CEB00DAULL) {
  social_->ImportGraph(initial);
  walks_.set_update_policy(opts.update_policy);
  walks_.Init(social_->graph(), opts.walks_per_node, opts.epsilon,
              opts.seed, opts.shard_index, opts.shard_count);
}

IncrementalPageRank::IncrementalPageRank(std::shared_ptr<SocialStore> social,
                                         const MonteCarloOptions& opts)
    : options_(opts), social_(std::move(social)),
      rng_(opts.seed ^ 0x1CEB00DAULL) {
  FASTPPR_CHECK(social_ != nullptr);
  walks_.set_update_policy(opts.update_policy);
  walks_.Init(social_->graph(), opts.walks_per_node, opts.epsilon,
              opts.seed, opts.shard_index, opts.shard_count);
}

IncrementalPageRank::IncrementalPageRank(ForRecovery,
                                         std::shared_ptr<SocialStore> social,
                                         const MonteCarloOptions& opts)
    : options_(opts), social_(std::move(social)),
      rng_(opts.seed ^ 0x1CEB00DAULL) {
  FASTPPR_CHECK(social_ != nullptr);
  walks_.set_update_policy(opts.update_policy);
}

Status IncrementalPageRank::AddEdge(NodeId src, NodeId dst) {
  FASTPPR_RETURN_IF_ERROR(social_->AddEdge(src, dst));
  last_stats_ = walks_.OnEdgeInserted(social_->graph(), src, dst, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  ++arrivals_;
  return Status::OK();
}

Status IncrementalPageRank::RemoveEdge(NodeId src, NodeId dst) {
  FASTPPR_RETURN_IF_ERROR(social_->RemoveEdge(src, dst));
  last_stats_ = walks_.OnEdgeRemoved(social_->graph(), src, dst, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  ++removals_;
  return Status::OK();
}

void IncrementalPageRank::RepairWindow(const WindowDelta& delta) {
  last_stats_ = walks_.RepairWindow(social_->graph(), delta, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  arrivals_ += delta.inserts();
  removals_ += delta.removes();
}

Status IncrementalPageRank::ApplyEvent(const EdgeEvent& event) {
  if (event.kind == EdgeEvent::Kind::kInsert) {
    return AddEdge(event.edge.src, event.edge.dst);
  }
  return RemoveEdge(event.edge.src, event.edge.dst);
}

Status IncrementalPageRank::ApplyEvents(std::span<const EdgeEvent> events) {
  // The shared window protocol (ApplyWindowPrefix): mutate until the
  // first invalid event, then repair the applied prefix's net change
  // once, so the store is consistent on failure too.
  std::size_t applied = 0;
  const Status result = ApplyWindowPrefix(
      events,
      [this](const Edge& e, bool insert) {
        return insert ? social_->AddEdge(e.src, e.dst)
                      : social_->RemoveEdge(e.src, e.dst);
      },
      &applied);
  delta_.Build(events.first(applied), kRepairsInEdges);
  RepairWindow(delta_);
  return result;
}

std::vector<NodeId> IncrementalPageRank::TopK(std::size_t k) const {
  std::vector<int64_t> counts(num_nodes());
  for (NodeId v = 0; v < counts.size(); ++v) {
    counts[v] = walks_.VisitCount(v);
  }
  return TopKByCount(counts, k);
}

void IncrementalPageRank::AccumulateRankingCounts(
    std::vector<int64_t>* acc) const {
  FASTPPR_CHECK(acc->size() == num_nodes());
  for (NodeId v = 0; v < acc->size(); ++v) {
    (*acc)[v] += walks_.VisitCount(v);
  }
}

}  // namespace fastppr
