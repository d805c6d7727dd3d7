#include "fastppr/graph/edge_stream.h"

#include <algorithm>

#include "fastppr/util/check.h"

namespace fastppr {

void WindowDelta::Build(std::span<const EdgeEvent> applied,
                        bool with_in_side) {
  inserts_ = 0;
  removes_ = 0;
  keyed_.clear();
  for (const EdgeEvent& ev : applied) {
    const bool insert = ev.kind == EdgeEvent::Kind::kInsert;
    ++(insert ? inserts_ : removes_);
    keyed_.push_back(Keyed{(uint64_t{ev.edge.src} << 32) | ev.edge.dst,
                           insert ? 1 : -1});
  }
  BuildSide(&keyed_, &out_);
  has_in_side_ = with_in_side;
  if (with_in_side) {
    for (Keyed& k : keyed_) k.key = (k.key << 32) | (k.key >> 32);
    BuildSide(&keyed_, &in_);
  } else {
    in_.pivots.clear();
    in_.removed.clear();
    in_.added.clear();
  }
}

std::size_t WindowDelta::Side::IndexOf(std::span<const Removed> removed,
                                       NodeId x) {
  const auto it = std::lower_bound(
      removed.begin(), removed.end(), x,
      [](const Removed& r, NodeId n) { return r.node < n; });
  return it != removed.end() && it->node == x
             ? static_cast<std::size_t>(it - removed.begin())
             : removed.size();
}

void WindowDelta::BuildSide(std::vector<Keyed>* keyed, Side* side) {
  side->pivots.clear();
  side->removed.clear();
  side->added.clear();
  std::sort(keyed->begin(), keyed->end(),
            [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  for (std::size_t lo = 0; lo < keyed->size();) {
    const uint64_t key = (*keyed)[lo].key;
    int64_t net = 0;
    for (; lo < keyed->size() && (*keyed)[lo].key == key; ++lo) {
      net += (*keyed)[lo].sign;
    }
    if (net == 0) continue;  // inserted and deleted within the window
    const NodeId pivot = static_cast<NodeId>(key >> 32);
    const NodeId neighbour = static_cast<NodeId>(key);
    if (side->pivots.empty() || side->pivots.back().node != pivot) {
      const auto r = static_cast<uint32_t>(side->removed.size());
      const auto a = static_cast<uint32_t>(side->added.size());
      side->pivots.push_back(Pivot{pivot, r, r, a, a, 0});
    }
    Pivot& p = side->pivots.back();
    if (net < 0) {
      side->removed.push_back(
          Removed{neighbour, static_cast<uint32_t>(-net)});
      p.removed_end = static_cast<uint32_t>(side->removed.size());
      p.removed_slots += static_cast<uint32_t>(-net);
    } else {
      side->added.insert(side->added.end(), static_cast<std::size_t>(net),
                         neighbour);
      p.added_end = static_cast<uint32_t>(side->added.size());
    }
  }
}

RandomPermutationStream::RandomPermutationStream(std::vector<Edge> edges,
                                                 Rng* rng)
    : edges_(std::move(edges)) {
  rng->Shuffle(&edges_);
}

std::optional<EdgeEvent> RandomPermutationStream::Next() {
  if (pos_ >= edges_.size()) return std::nullopt;
  return EdgeEvent{EdgeEvent::Kind::kInsert, edges_[pos_++]};
}

std::optional<EdgeEvent> AdversarialStream::Next() {
  if (pos_ >= edges_.size()) return std::nullopt;
  return EdgeEvent{EdgeEvent::Kind::kInsert, edges_[pos_++]};
}

DirichletStream::DirichletStream(std::size_t num_nodes,
                                 std::size_t num_events, Rng* rng)
    : num_nodes_(num_nodes), num_events_(num_events), rng_(rng->Fork()) {
  FASTPPR_CHECK(num_nodes_ >= 2);
}

std::optional<EdgeEvent> DirichletStream::Next() {
  if (produced_ >= num_events_) return std::nullopt;
  // Pr[u] = (outdeg_u + 1) / (t - 1 + n): with probability
  // t-1 / (t-1+n) pick an existing edge endpoint (prop. to outdeg),
  // otherwise a uniform node (the "+1" smoothing).
  auto sample = [&](const std::vector<NodeId>& endpoints) {
    double t_minus_1 = static_cast<double>(endpoints.size());
    double denom = t_minus_1 + static_cast<double>(num_nodes_);
    if (!endpoints.empty() && rng_.NextDouble() * denom < t_minus_1) {
      return endpoints[rng_.UniformIndex(endpoints.size())];
    }
    return static_cast<NodeId>(rng_.UniformIndex(num_nodes_));
  };
  NodeId src = sample(out_endpoints_);
  NodeId dst = sample(in_endpoints_);
  int attempts = 0;
  while (dst == src && attempts++ < 32) dst = sample(in_endpoints_);
  if (dst == src) dst = static_cast<NodeId>((src + 1) % num_nodes_);
  out_endpoints_.push_back(src);
  in_endpoints_.push_back(dst);
  ++produced_;
  return EdgeEvent{EdgeEvent::Kind::kInsert, Edge{src, dst}};
}

ChurnStream::ChurnStream(std::vector<Edge> edges, double p_delete,
                         std::size_t warmup, Rng* rng)
    : pending_(std::move(edges)), p_delete_(p_delete), warmup_(warmup),
      rng_(rng->Fork()) {
  rng_.Shuffle(&pending_);
  // Treat pending_ as a stack: reverse so pop_back() yields shuffled order.
}

std::optional<EdgeEvent> ChurnStream::Next() {
  const bool can_delete = inserted_ > warmup_ && !live_.empty();
  if (can_delete && rng_.Bernoulli(p_delete_)) {
    std::size_t i = rng_.UniformIndex(live_.size());
    Edge victim = live_[i];
    live_[i] = live_.back();
    live_.pop_back();
    reinsert_.push_back(victim);
    return EdgeEvent{EdgeEvent::Kind::kDelete, victim};
  }
  Edge e;
  if (!pending_.empty()) {
    e = pending_.back();
    pending_.pop_back();
  } else if (!reinsert_.empty()) {
    e = reinsert_.back();
    reinsert_.pop_back();
  } else {
    return std::nullopt;
  }
  live_.push_back(e);
  ++inserted_;
  return EdgeEvent{EdgeEvent::Kind::kInsert, e};
}

std::vector<EdgeEvent> ApplyAll(EdgeStream* stream, DiGraph* graph) {
  std::vector<EdgeEvent> applied;
  while (auto ev = stream->Next()) {
    graph->EnsureNodes(
        std::max<std::size_t>(ev->edge.src, ev->edge.dst) + 1);
    if (ev->kind == EdgeEvent::Kind::kInsert) {
      FASTPPR_CHECK(graph->AddEdge(ev->edge.src, ev->edge.dst).ok());
    } else {
      FASTPPR_CHECK(graph->RemoveEdge(ev->edge.src, ev->edge.dst).ok());
    }
    applied.push_back(*ev);
  }
  return applied;
}

}  // namespace fastppr
