#include "fastppr/core/incremental_salsa.h"

#include <algorithm>

#include "fastppr/core/ranking.h"
#include "fastppr/util/check.h"

namespace fastppr {

IncrementalSalsa::IncrementalSalsa(std::size_t num_nodes,
                                   const MonteCarloOptions& opts)
    : options_(opts), social_(std::make_shared<SocialStore>(num_nodes)),
      rng_(opts.seed ^ 0x5A15AULL) {
  walks_.Init(social_->graph(), opts.walks_per_node, opts.epsilon,
              opts.seed, opts.shard_index, opts.shard_count);
}

IncrementalSalsa::IncrementalSalsa(const DiGraph& initial,
                                   const MonteCarloOptions& opts)
    : options_(opts),
      social_(std::make_shared<SocialStore>(initial.num_nodes())),
      rng_(opts.seed ^ 0x5A15AULL) {
  social_->ImportGraph(initial);
  walks_.Init(social_->graph(), opts.walks_per_node, opts.epsilon,
              opts.seed, opts.shard_index, opts.shard_count);
}

IncrementalSalsa::IncrementalSalsa(std::shared_ptr<SocialStore> social,
                                   const MonteCarloOptions& opts)
    : options_(opts), social_(std::move(social)),
      rng_(opts.seed ^ 0x5A15AULL) {
  FASTPPR_CHECK(social_ != nullptr);
  walks_.Init(social_->graph(), opts.walks_per_node, opts.epsilon,
              opts.seed, opts.shard_index, opts.shard_count);
}

IncrementalSalsa::IncrementalSalsa(ForRecovery,
                                   std::shared_ptr<SocialStore> social,
                                   const MonteCarloOptions& opts)
    : options_(opts), social_(std::move(social)),
      rng_(opts.seed ^ 0x5A15AULL) {
  FASTPPR_CHECK(social_ != nullptr);
}

Status IncrementalSalsa::AddEdge(NodeId src, NodeId dst) {
  FASTPPR_RETURN_IF_ERROR(social_->AddEdge(src, dst));
  last_stats_ = walks_.OnEdgeInserted(social_->graph(), src, dst, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  ++arrivals_;
  return Status::OK();
}

Status IncrementalSalsa::RemoveEdge(NodeId src, NodeId dst) {
  FASTPPR_RETURN_IF_ERROR(social_->RemoveEdge(src, dst));
  last_stats_ = walks_.OnEdgeRemoved(social_->graph(), src, dst, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  ++removals_;
  return Status::OK();
}

void IncrementalSalsa::RepairWindow(const WindowDelta& delta) {
  last_stats_ = walks_.RepairWindow(social_->graph(), delta, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  arrivals_ += delta.inserts();
  removals_ += delta.removes();
}

Status IncrementalSalsa::ApplyEvent(const EdgeEvent& event) {
  if (event.kind == EdgeEvent::Kind::kInsert) {
    return AddEdge(event.edge.src, event.edge.dst);
  }
  return RemoveEdge(event.edge.src, event.edge.dst);
}

Status IncrementalSalsa::ApplyEvents(std::span<const EdgeEvent> events) {
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

std::vector<NodeId> IncrementalSalsa::TopKAuthorities(std::size_t k) const {
  std::vector<int64_t> counts(num_nodes());
  for (NodeId v = 0; v < counts.size(); ++v) {
    counts[v] = walks_.AuthorityVisits(v);
  }
  return TopKByCount(counts, k);
}

void IncrementalSalsa::AccumulateRankingCounts(
    std::vector<int64_t>* acc) const {
  FASTPPR_CHECK(acc->size() == num_nodes());
  for (NodeId v = 0; v < acc->size(); ++v) {
    (*acc)[v] += walks_.AuthorityVisits(v);
  }
}

}  // namespace fastppr
