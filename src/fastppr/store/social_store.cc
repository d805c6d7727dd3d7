#include "fastppr/store/social_store.h"

#include "fastppr/util/check.h"

namespace fastppr {

SocialStore::SocialStore(std::size_t num_nodes, Options options)
    : options_(options), graph_(num_nodes),
      stripes_(options.num_shards) {}

void SocialStore::ImportGraph(const DiGraph& initial) {
  graph_.EnsureNodes(initial.num_nodes());
  for (NodeId u = 0; u < initial.num_nodes(); ++u) {
    for (NodeId v : initial.OutNeighbors(u)) {
      FASTPPR_CHECK(graph_.AddEdge(u, v).ok());
    }
  }
}

Status SocialStore::AddEdge(NodeId src, NodeId dst) {
  Status s = graph_.AddEdge(src, dst);
  if (s.ok()) CountWrite(src);
  return s;
}

Status SocialStore::RemoveEdge(NodeId src, NodeId dst) {
  Status s = graph_.RemoveEdge(src, dst);
  if (s.ok()) CountWrite(src);
  return s;
}

std::span<const NodeId> SocialStore::GetOutNeighbors(NodeId v) {
  CountRead(v);
  return graph_.OutNeighbors(v);
}

std::span<const NodeId> SocialStore::GetInNeighbors(NodeId v) {
  CountRead(v);
  return graph_.InNeighbors(v);
}

std::size_t SocialStore::GetOutDegree(NodeId v) {
  CountRead(v);
  return graph_.OutDegree(v);
}

std::size_t SocialStore::GetInDegree(NodeId v) {
  CountRead(v);
  return graph_.InDegree(v);
}

uint64_t SocialStore::reads() const {
  uint64_t total = 0;
  for (const CounterStripe& s : stripes_) {
    total += s.reads.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t SocialStore::writes() const {
  uint64_t total = 0;
  for (const CounterStripe& s : stripes_) {
    total += s.writes.load(std::memory_order_relaxed);
  }
  return total;
}

void SocialStore::ResetStats() {
  for (CounterStripe& s : stripes_) {
    s.reads.store(0, std::memory_order_relaxed);
    s.writes.store(0, std::memory_order_relaxed);
  }
}

}  // namespace fastppr
