#ifndef FASTPPR_GRAPH_EDGE_STREAM_H_
#define FASTPPR_GRAPH_EDGE_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/types.h"
#include "fastppr/util/random.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// An edge-arrival (or departure) event in a dynamic graph stream.
struct EdgeEvent {
  enum class Kind { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  Edge edge;
};

/// The ingestion-window protocol shared by the flat engines, the
/// sharded orchestrator and WAL replay: `mutate(edge, insert)` is
/// applied per event, in order, until one fails — a window stops at its
/// first invalid event. Returns that failure (OK when every event
/// applied) and stores the applied prefix length in `*applied`; the
/// caller repairs exactly that prefix, so on failure the applied part
/// of the window is repaired before the failing Status is returned.
template <typename MutateFn>
Status ApplyWindowPrefix(std::span<const EdgeEvent> events,
                         const MutateFn& mutate, std::size_t* applied) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EdgeEvent& ev = events[i];
    Status s = mutate(ev.edge, ev.kind == EdgeEvent::Kind::kInsert);
    if (!s.ok()) {
      *applied = i;
      return s;
    }
  }
  *applied = events.size();
  return Status::OK();
}

/// The net effect of one applied window on the adjacency multisets —
/// all the window coupling (DESIGN.md §1) needs, since it repairs
/// against the graphs before and after the window, never against the
/// order of its events. Grouped per pivot node: the neighbours whose
/// parallel-copy count fell (with the net copies removed) and the new
/// slots (one entry per net-inserted copy). Built in sorted
/// (pivot, neighbour) order — never hash order — so the repairs' RNG
/// consumption is a pure function of the window's net content. An
/// insert and a delete of the same edge in one window cancel.
class WindowDelta {
 public:
  struct Removed {
    NodeId node;      ///< neighbour that lost copies
    uint32_t copies;  ///< net copies removed
  };
  /// One pivot with a nonzero net change; [begin, end) ranges index
  /// the side's removed() and added() arrays.
  struct Pivot {
    NodeId node;
    uint32_t removed_begin;
    uint32_t removed_end;
    uint32_t added_begin;
    uint32_t added_end;
    uint32_t removed_slots;  ///< sum of the removed copies
    uint32_t num_added() const { return added_end - added_begin; }
  };
  /// One side of the adjacency: out (pivot = source, neighbours are
  /// targets) or in (pivot = target, neighbours are sources).
  struct Side {
    std::vector<Pivot> pivots;  ///< ascending node order
    std::vector<Removed> removed;
    std::vector<NodeId> added;

    /// The pivot's removed neighbours, ascending by node.
    std::span<const Removed> RemovedOf(const Pivot& p) const {
      return {removed.data() + p.removed_begin,
              p.removed_end - p.removed_begin};
    }
    /// Index of neighbour `x` in RemovedOf(p) (binary search), or its
    /// size when x lost no copies at p.
    static std::size_t IndexOf(std::span<const Removed> removed, NodeId x);
    std::span<const NodeId> AddedOf(const Pivot& p) const {
      return {added.data() + p.added_begin, p.num_added()};
    }
  };

  /// Rebuilds the delta of an applied window prefix. `with_in_side`
  /// also builds the in side (SALSA repairs both endpoints).
  void Build(std::span<const EdgeEvent> applied, bool with_in_side);

  const Side& out() const { return out_; }
  const Side& in() const { return in_; }
  bool has_in_side() const { return has_in_side_; }
  /// Applied insert / delete events (gross, not net): the engines'
  /// arrival and removal counters.
  uint64_t inserts() const { return inserts_; }
  uint64_t removes() const { return removes_; }

 private:
  struct Keyed {
    uint64_t key;  ///< pivot << 32 | neighbour
    int32_t sign;  ///< +1 insert, -1 delete
  };
  static void BuildSide(std::vector<Keyed>* keyed, Side* side);

  Side out_;
  Side in_;
  bool has_in_side_ = false;
  uint64_t inserts_ = 0;
  uint64_t removes_ = 0;
  std::vector<Keyed> keyed_;  ///< reusable sort scratch
};

/// Abstract edge-arrival process. Section 2.2 of the paper analyses three
/// models: random permutation (the main theorem), Dirichlet, and
/// adversarial; each is a subclass here.
class EdgeStream {
 public:
  virtual ~EdgeStream() = default;

  /// Next event, or nullopt when the stream is exhausted.
  virtual std::optional<EdgeEvent> Next() = 0;

  /// Total events this stream will produce, if known (0 = unknown).
  virtual std::size_t size() const = 0;
};

/// The paper's main model: m adversarially chosen edges arriving in a
/// uniformly random order.
class RandomPermutationStream : public EdgeStream {
 public:
  RandomPermutationStream(std::vector<Edge> edges, Rng* rng);

  std::optional<EdgeEvent> Next() override;
  std::size_t size() const override { return edges_.size(); }

 private:
  std::vector<Edge> edges_;
  std::size_t pos_ = 0;
};

/// Fixed (adversary-chosen) arrival order: replays the edge list verbatim.
class AdversarialStream : public EdgeStream {
 public:
  explicit AdversarialStream(std::vector<Edge> edges)
      : edges_(std::move(edges)) {}

  std::optional<EdgeEvent> Next() override;
  std::size_t size() const override { return edges_.size(); }

 private:
  std::vector<Edge> edges_;
  std::size_t pos_ = 0;
};

/// The Dirichlet arrival model of Section 2.2: at time t the source of the
/// arriving edge is u with probability [outdeg_u(t-1) + 1] / [t - 1 + n].
/// The destination is sampled preferentially by indegree + 1 (the model in
/// the paper leaves the destination unconstrained; preferential targets
/// keep the graph power-law). Generates `num_events` insertions on the fly.
class DirichletStream : public EdgeStream {
 public:
  DirichletStream(std::size_t num_nodes, std::size_t num_events, Rng* rng);

  std::optional<EdgeEvent> Next() override;
  std::size_t size() const override { return num_events_; }

 private:
  std::size_t num_nodes_;
  std::size_t num_events_;
  std::size_t produced_ = 0;
  Rng rng_;
  std::vector<NodeId> out_endpoints_;  // node repeated once per out-edge
  std::vector<NodeId> in_endpoints_;   // node repeated once per in-edge
};

/// Mixed insert/delete stream: replays `edges` in random order, and after a
/// warmup prefix interleaves deletions of uniformly random live edges with
/// probability `p_delete` per step (deleted edges are re-inserted later so
/// the final graph equals the input set). Used by the deletion benches.
class ChurnStream : public EdgeStream {
 public:
  ChurnStream(std::vector<Edge> edges, double p_delete, std::size_t warmup,
              Rng* rng);

  std::optional<EdgeEvent> Next() override;
  std::size_t size() const override { return 0; }  // unknown: churn added

 private:
  std::vector<Edge> pending_;            // not yet inserted (reversed order)
  std::vector<Edge> live_;               // currently inserted
  std::vector<Edge> reinsert_;           // deleted, to be re-inserted
  double p_delete_;
  std::size_t warmup_;
  std::size_t inserted_ = 0;
  Rng rng_;
};

/// Drains a stream into a DiGraph, returning the events applied. Utility
/// for tests and benches that do not need per-event hooks.
std::vector<EdgeEvent> ApplyAll(EdgeStream* stream, DiGraph* graph);

}  // namespace fastppr

#endif  // FASTPPR_GRAPH_EDGE_STREAM_H_
