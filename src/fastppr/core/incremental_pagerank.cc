#include "fastppr/core/incremental_pagerank.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fastppr/core/ranking.h"
#include "fastppr/graph/graph_io.h"
#include "fastppr/store/walk_store_io.h"
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

Status IncrementalPageRank::SaveSnapshot(
    const std::string& directory) const {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) return Status::IOError("cannot create " + directory);
  FASTPPR_RETURN_IF_ERROR(
      WriteSnapEdgeList(directory + "/graph.txt", graph().Edges()));
  return SaveWalkStore(walks_, directory + "/walks.bin");
}

Status IncrementalPageRank::LoadSnapshot(
    const std::string& directory, const MonteCarloOptions& opts,
    std::unique_ptr<IncrementalPageRank>* engine) {
  // Node ids inside an engine snapshot are already dense and must be
  // preserved exactly (ReadSnapEdgeList would remap by first appearance),
  // so read the raw pairs directly.
  std::vector<Edge> edges;
  {
    std::ifstream in(directory + "/graph.txt");
    if (!in.is_open()) {
      return Status::IOError("cannot open " + directory + "/graph.txt");
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      uint64_t src = 0, dst = 0;
      if (!(ls >> src >> dst)) {
        return Status::Corruption("malformed graph snapshot line");
      }
      edges.push_back(
          Edge{static_cast<NodeId>(src), static_cast<NodeId>(dst)});
    }
  }
  std::size_t num_nodes = 0;
  for (const Edge& e : edges) {
    num_nodes = std::max<std::size_t>(
        num_nodes, std::max<std::size_t>(e.src, e.dst) + 1);
  }

  // Try loading the walks against graphs of growing size: the snapshot
  // validates the node count itself.
  auto attempt = [&](std::size_t n,
                     std::unique_ptr<IncrementalPageRank>* out) {
    MonteCarloOptions adjusted = opts;
    // Snapshots always describe a full (unsharded) store.
    adjusted.shard_index = 0;
    adjusted.shard_count = 1;
    auto candidate =
        std::make_unique<IncrementalPageRank>(0, adjusted);
    DiGraph* g = candidate->social_->mutable_graph();
    g->EnsureNodes(n);
    for (const Edge& e : edges) {
      FASTPPR_RETURN_IF_ERROR(g->AddEdge(e.src, e.dst));
    }
    FASTPPR_RETURN_IF_ERROR(
        LoadWalkStore(directory + "/walks.bin", *g, &candidate->walks_));
    candidate->walks_.set_update_policy(opts.update_policy);
    candidate->options_.walks_per_node = candidate->walks_.walks_per_node();
    candidate->options_.epsilon = candidate->walks_.epsilon();
    *out = std::move(candidate);
    return Status::OK();
  };
  // First try with the edge-derived node count; if the stored universe
  // was larger (isolated nodes), the walk loader reports the mismatch —
  // retry with the count embedded in the walks snapshot.
  Status s = attempt(num_nodes, engine);
  if (s.ok()) return s;
  if (!s.IsInvalidArgument()) return s;
  // Read the node count from the walks header for the retry.
  uint64_t stored_nodes = 0;
  if (!PeekWalkStoreNodeCount(directory + "/walks.bin", &stored_nodes)
           .ok() ||
      stored_nodes < num_nodes) {
    return s;
  }
  return attempt(stored_nodes, engine);
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
