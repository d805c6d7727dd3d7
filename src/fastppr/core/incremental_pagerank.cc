#include "fastppr/core/incremental_pagerank.h"

#include <utility>

#include "fastppr/core/ranking.h"
#include "fastppr/util/check.h"

namespace fastppr {

std::shared_ptr<DiGraph> LoadInitialGraph(const DiGraph& initial) {
  auto graph = std::make_shared<DiGraph>(initial.num_nodes());
  for (NodeId u = 0; u < initial.num_nodes(); ++u) {
    for (NodeId v : initial.OutNeighbors(u)) {
      FASTPPR_CHECK(graph->AddEdge(u, v).ok());
    }
  }
  return graph;
}

template <typename Steps>
BasicIncrementalEngine<Steps>::BasicIncrementalEngine(
    std::size_t num_nodes, const MonteCarloOptions& opts)
    : BasicIncrementalEngine(std::make_shared<DiGraph>(num_nodes), opts) {}

template <typename Steps>
BasicIncrementalEngine<Steps>::BasicIncrementalEngine(
    const DiGraph& initial, const MonteCarloOptions& opts)
    : BasicIncrementalEngine(LoadInitialGraph(initial), opts) {}

template <typename Steps>
BasicIncrementalEngine<Steps>::BasicIncrementalEngine(
    std::shared_ptr<DiGraph> graph, const MonteCarloOptions& opts)
    : BasicIncrementalEngine(ForRecovery{}, std::move(graph), opts) {
  walks_.Init(*graph_, opts.walks_per_node, opts.epsilon, opts.seed,
              opts.shard_index, opts.shard_count);
}

template <typename Steps>
BasicIncrementalEngine<Steps>::BasicIncrementalEngine(
    ForRecovery, std::shared_ptr<DiGraph> graph,
    const MonteCarloOptions& opts)
    : options_(opts), graph_(std::move(graph)),
      rng_(opts.seed ^ Steps::kRngSalt) {
  FASTPPR_CHECK(graph_ != nullptr);
  walks_.set_update_policy(opts.update_policy);
}

template <typename Steps>
Status BasicIncrementalEngine<Steps>::AddEdge(NodeId src, NodeId dst) {
  FASTPPR_RETURN_IF_ERROR(graph_->AddEdge(src, dst));
  last_stats_ = walks_.OnEdgeInserted(*graph_, src, dst, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  ++arrivals_;
  return Status::OK();
}

template <typename Steps>
Status BasicIncrementalEngine<Steps>::RemoveEdge(NodeId src, NodeId dst) {
  FASTPPR_RETURN_IF_ERROR(graph_->RemoveEdge(src, dst));
  last_stats_ = walks_.OnEdgeRemoved(*graph_, src, dst, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  ++removals_;
  return Status::OK();
}

template <typename Steps>
void BasicIncrementalEngine<Steps>::RepairWindow(const WindowDelta& delta) {
  last_stats_ = walks_.RepairWindow(*graph_, delta, &rng_);
  lifetime_stats_.Accumulate(last_stats_);
  arrivals_ += delta.inserts();
  removals_ += delta.removes();
}

template <typename Steps>
Status BasicIncrementalEngine<Steps>::ApplyEvent(const EdgeEvent& event) {
  if (event.kind == EdgeEvent::Kind::kInsert) {
    return AddEdge(event.edge.src, event.edge.dst);
  }
  return RemoveEdge(event.edge.src, event.edge.dst);
}

template <typename Steps>
Status BasicIncrementalEngine<Steps>::ApplyEvents(
    std::span<const EdgeEvent> events) {
  // The shared window protocol (ApplyWindowPrefix): mutate until the
  // first invalid event, then repair the applied prefix's net change
  // once, so the store is consistent on failure too.
  std::size_t applied = 0;
  const Status result = ApplyWindowPrefix(
      events,
      [this](const Edge& e, bool insert) {
        return insert ? graph_->AddEdge(e.src, e.dst)
                      : graph_->RemoveEdge(e.src, e.dst);
      },
      &applied);
  delta_.Build(events.first(applied), kRepairsInEdges);
  RepairWindow(delta_);
  return result;
}

template <typename Steps>
std::vector<NodeId> BasicIncrementalEngine<Steps>::TopK(
    std::size_t k, uint32_t side) const {
  std::vector<int64_t> counts(num_nodes());
  for (NodeId v = 0; v < counts.size(); ++v) {
    counts[v] = walks_.VisitCount(v, side);
  }
  return TopKByCount(counts, k);
}

template <typename Steps>
void BasicIncrementalEngine<Steps>::AccumulateRankingCounts(
    std::vector<int64_t>* acc) const {
  FASTPPR_CHECK(acc->size() == num_nodes());
  for (NodeId v = 0; v < acc->size(); ++v) {
    (*acc)[v] += walks_.VisitCount(v);
  }
}

template class BasicIncrementalEngine<PageRankSteps>;
template class BasicIncrementalEngine<SalsaSteps>;

}  // namespace fastppr
