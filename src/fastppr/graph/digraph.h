#ifndef FASTPPR_GRAPH_DIGRAPH_H_
#define FASTPPR_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "fastppr/graph/adjacency_slab.h"
#include "fastppr/graph/types.h"
#include "fastppr/util/random.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Dynamic directed multigraph over a fixed node universe [0, n).
///
/// This is the in-memory "social graph": both out- and in-adjacency are
/// maintained so that forward (PageRank) and alternating forward/backward
/// (SALSA) walks have O(1) random-neighbour sampling. Parallel edges are
/// allowed (a user may be followed through several products); self-loops
/// are allowed but generators avoid them.
///
/// Storage is the slab-backed AdjacencySlab (graph/adjacency_slab.h):
/// per-node neighbour runs are contiguous in two flat arenas, so walk
/// steps touch cache-local memory; AddEdge is O(1) amortized and
/// RemoveEdge is an O(outdeg(src)) contiguous locate plus an O(1)
/// twin-backpointer unlink — the heavy-tailed in-degree side is never
/// scanned (the seed layout paid one heap vector per node and an
/// O(outdeg + indeg) double scan per removal).
///
/// Determinism: sampling is defined over the slab's canonical slot
/// order — neighbour k of v is the k-th live slot of v's block, a pure
/// function of the mutation history. RemoveEdge removes the first
/// stored occurrence from the out-list and back-fills the hole with the
/// last slot (the seed layout's out-list evolution); the in-list
/// removes the *twin* of that occurrence, which under parallel edges
/// can differ from the seed layout's first-occurrence scan — same edge
/// multiset, possibly different in-slot order, so cross-layout RNG
/// streams agree in distribution, not bit-for-bit.
class DiGraph {
 public:
  /// An empty graph over `num_nodes` nodes.
  explicit DiGraph(std::size_t num_nodes = 0) : slab_(num_nodes) {}

  std::size_t num_nodes() const { return slab_.num_nodes(); }
  std::size_t num_edges() const { return slab_.num_edges(); }

  /// Mutation counter (bumped by every successful Add/RemoveEdge). The
  /// sharded engine's shared-graph contract: parallel repair phases run
  /// only while the epoch is frozen.
  uint64_t epoch() const { return slab_.epoch(); }

  /// Grows the node universe to at least `num_nodes`.
  void EnsureNodes(std::size_t num_nodes) { slab_.EnsureNodes(num_nodes); }

  /// Adds edge src->dst in O(1) amortized. Returns InvalidArgument if
  /// either endpoint is out of range.
  Status AddEdge(NodeId src, NodeId dst) {
    return slab_.AddEdge(src, dst);
  }

  /// Removes the first stored occurrence of src->dst: O(outdeg(src))
  /// locate + O(1) unlink. Returns NotFound if the edge is not present.
  Status RemoveEdge(NodeId src, NodeId dst) {
    return slab_.RemoveEdge(src, dst);
  }

  bool HasEdge(NodeId src, NodeId dst) const {
    return slab_.HasEdge(src, dst);
  }

  std::size_t OutDegree(NodeId v) const { return slab_.OutDegree(v); }
  std::size_t InDegree(NodeId v) const { return slab_.InDegree(v); }

  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return slab_.OutNeighbors(v);
  }
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return slab_.InNeighbors(v);
  }

  /// Uniformly random out-neighbour; kInvalidNode if outdegree is 0.
  NodeId RandomOutNeighbor(NodeId v, Rng* rng) const {
    const auto outs = slab_.OutNeighbors(v);
    if (outs.empty()) return kInvalidNode;
    return outs[rng->UniformIndex(outs.size())];
  }

  /// Uniformly random in-neighbour; kInvalidNode if indegree is 0.
  NodeId RandomInNeighbor(NodeId v, Rng* rng) const {
    const auto ins = slab_.InNeighbors(v);
    if (ins.empty()) return kInvalidNode;
    return ins[rng->UniformIndex(ins.size())];
  }

  /// All edges in canonical slot order (materialized; O(m)).
  std::vector<Edge> Edges() const;

  /// Number of dangling (outdegree-0) nodes.
  std::size_t CountDangling() const;

  /// Heap bytes held by the adjacency storage (benchmark accounting).
  std::size_t MemoryBytes() const { return slab_.MemoryBytes(); }

  /// The underlying slab (telemetry / invariant audits).
  const AdjacencySlab& slab() const { return slab_; }

  /// Durability hooks (DESIGN.md §8): verbatim slab state, delegating to
  /// AdjacencySlab::SaveTo/LoadFrom.
  template <typename Sink>
  void SaveTo(Sink* w) const {
    slab_.SaveTo(w);
  }
  template <typename Src>
  bool LoadFrom(Src* r) {
    return slab_.LoadFrom(r);
  }

 private:
  AdjacencySlab slab_;
};

}  // namespace fastppr

#endif  // FASTPPR_GRAPH_DIGRAPH_H_
