#ifndef FASTPPR_CORE_SALSA_WALKER_H_
#define FASTPPR_CORE_SALSA_WALKER_H_

#include <concepts>
#include <cstdint>
#include <vector>

#include "fastppr/core/ppr_walker.h"
#include "fastppr/graph/types.h"
#include "fastppr/store/salsa_walk_store.h"
#include "fastppr/store/social_store.h"
#include "fastppr/util/check.h"
#include "fastppr/util/random.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Counters of one stitched personalized SALSA walk. The visits are
/// counted in the walk's scratch (SalsaWalkScratch), hub side and
/// authority side apart: a friend recommender ranks by authority score
/// (relevance), Section 1.1 of the paper.
struct SalsaWalkResult {
  uint64_t length = 0;
  uint64_t fetches = 0;
  uint64_t segments_used = 0;
  uint64_t manual_steps = 0;
  uint64_t resets = 0;
};

/// The dense accumulator of a personalized SALSA walk — the SALSA
/// analogue of PersonalizedWalkScratch: hub/authority count arrays plus
/// per-direction consumed-segment slots, allocated once and reset in
/// O(nodes touched) between walks. Prepare() self-heals from the touched
/// lists even after a mid-walk abort.
struct SalsaWalkScratch {
  std::vector<int64_t> hub_counts;
  std::vector<int64_t> authority_counts;
  std::vector<NodeId> hub_visited;
  std::vector<NodeId> authority_visited;
  /// Consumed slots are only ever written for fetched nodes, so the
  /// `fetched_nodes` list is sufficient to reset both of them.
  std::vector<uint32_t> used_fwd;
  std::vector<uint32_t> used_bwd;
  std::vector<uint8_t> fetched;
  std::vector<NodeId> fetched_nodes;
  std::vector<uint8_t> excluded;
  std::vector<NodeId> excluded_nodes;
  std::vector<ScoredNode> ranked_tmp;

  void Prepare(std::size_t num_nodes) {
    if (hub_counts.size() != num_nodes) {
      hub_counts.assign(num_nodes, 0);
      authority_counts.assign(num_nodes, 0);
      used_fwd.assign(num_nodes, 0);
      used_bwd.assign(num_nodes, 0);
      fetched.assign(num_nodes, 0);
      excluded.assign(num_nodes, 0);
    } else {
      for (NodeId v : hub_visited) hub_counts[v] = 0;
      for (NodeId v : authority_visited) authority_counts[v] = 0;
      for (NodeId v : fetched_nodes) {
        used_fwd[v] = 0;
        used_bwd[v] = 0;
        fetched[v] = 0;
      }
      for (NodeId v : excluded_nodes) excluded[v] = 0;
    }
    hub_visited.clear();
    authority_visited.clear();
    fetched_nodes.clear();
    excluded_nodes.clear();
  }

  void MarkExcluded(NodeId v) {
    if (!excluded[v]) {
      excluded[v] = 1;
      excluded_nodes.push_back(v);
    }
  }
};

/// Algorithm 1 adapted to personalized SALSA: the walk alternates forward
/// and backward steps, resets (to the seed, in hub role) only before
/// forward steps, and stitches the stored SalsaWalkStore segments whose
/// start direction matches the walk's current parity. Its visits are
/// counted into a caller-owned SalsaWalkScratch.
///
/// `StoreView` abstracts where the segments live (flat SalsaWalkStore, a
/// sharded view routing to the shard owning each node, or a frozen
/// snapshot view); it must provide walks_per_node(), epsilon() and
/// GetSegment(node, k). `GraphView` abstracts the adjacency (live
/// DiGraph, or a FrozenAdjacency captured WITH its in-side — SALSA walks
/// step backwards).
template <typename StoreView, typename GraphView = DiGraph>
class BasicPersonalizedSalsaWalker {
 public:
  BasicPersonalizedSalsaWalker(const StoreView* store,
                               const GraphView* graph,
                               WalkerOptions options = WalkerOptions())
      : store_(store), graph_(graph), options_(options) {
    FASTPPR_CHECK(store_ != nullptr && graph_ != nullptr);
  }

  /// Flat-deployment convenience: walks the social store's (uncounted)
  /// local graph replica.
  BasicPersonalizedSalsaWalker(const StoreView* store,
                               const SocialStore* social,
                               WalkerOptions options = WalkerOptions())
    requires std::same_as<GraphView, DiGraph>
      : BasicPersonalizedSalsaWalker(store, CheckedGraph(social),
                                     options) {}

  /// Runs a stitched walk of (at least) `length` positions from `seed`,
  /// counting its hub-side and authority-side visits into `scratch`
  /// (`hub_visited`/`hub_counts` and `authority_visited`/
  /// `authority_counts`). A walk that aborts (deadline, fetch budget)
  /// leaves its partial counts there; the next walk on the scratch
  /// resets them.
  Status Walk(NodeId seed, uint64_t length, uint64_t rng_seed,
              SalsaWalkScratch* scratch, SalsaWalkResult* out) const {
    FASTPPR_CHECK(scratch != nullptr && out != nullptr);
    if (seed >= graph_->num_nodes()) {
      return Status::InvalidArgument("seed node out of range");
    }
    scratch->Prepare(graph_->num_nodes());
    *out = SalsaWalkResult{};
    // Deadline contract identical to the PageRank walker: zero
    // accumulation when already expired, cooperative poll every
    // kDeadlineCheckStride appended positions afterwards.
    const serve::Deadline& deadline = options_.deadline;
    if (deadline.expired()) {
      return Status::DeadlineExceeded("walk deadline expired");
    }
    uint64_t next_deadline_poll = kDeadlineCheckStride;
    Rng rng(rng_seed);
    const std::size_t R = store_->walks_per_node();
    const double eps = store_->epsilon();
    const GraphView& g = *graph_;
    SalsaWalkScratch& s = *scratch;

    // Parity: true = hub side (a forward step is due), false = authority.
    bool hub_side = true;
    NodeId cur = seed;

    auto visit = [&s, out](NodeId v, bool hub) {
      if (hub) {
        if (s.hub_counts[v]++ == 0) s.hub_visited.push_back(v);
      } else {
        if (s.authority_counts[v]++ == 0) s.authority_visited.push_back(v);
      }
      ++out->length;
    };
    auto charge_fetch = [this, out]() -> bool {
      ++out->fetches;
      return options_.max_fetches == 0 ||
             out->fetches <= options_.max_fetches;
    };
    auto reset_to_seed = [&]() {
      visit(seed, /*hub=*/true);
      ++out->resets;
      cur = seed;
      hub_side = true;
    };

    visit(seed, /*hub=*/true);
    while (out->length < length) {
      if (deadline.has_deadline() && out->length >= next_deadline_poll) {
        if (deadline.expired()) {
          return Status::DeadlineExceeded("walk deadline expired");
        }
        next_deadline_poll = out->length + kDeadlineCheckStride;
      }
      if (!s.fetched[cur]) {
        if (!charge_fetch()) {
          return Status::ResourceExhausted("fetch budget exhausted");
        }
        s.fetched[cur] = 1;
        s.fetched_nodes.push_back(cur);
      }
      uint32_t& consumed = hub_side ? s.used_fwd[cur] : s.used_bwd[cur];
      if (consumed < R) {
        // Stored segments with matching start direction: [0, R) are
        // forward-start, [R, 2R) are backward-start.
        const std::size_t slot = hub_side ? consumed : R + consumed;
        const auto seg = store_->GetSegment(cur, slot);
        ++consumed;
        ++out->segments_used;
        bool side = hub_side;
        for (std::size_t p = 1; p < seg.size() && out->length < length;
             ++p) {
          side = !side;
          visit(seg.node(p), side);
        }
        if (out->length < length) reset_to_seed();
        continue;
      }
      // Manual simulation.
      if (hub_side) {
        if (rng.Bernoulli(eps)) {
          reset_to_seed();
          continue;
        }
        if (options_.fetch_mode == FetchMode::kSegmentsAndOneEdge &&
            !charge_fetch()) {
          return Status::ResourceExhausted("fetch budget exhausted");
        }
        if (g.OutDegree(cur) == 0) {
          reset_to_seed();
          continue;
        }
        cur = g.RandomOutNeighbor(cur, &rng);
        hub_side = false;
      } else {
        if (options_.fetch_mode == FetchMode::kSegmentsAndOneEdge &&
            !charge_fetch()) {
          return Status::ResourceExhausted("fetch budget exhausted");
        }
        if (g.InDegree(cur) == 0) {
          reset_to_seed();
          continue;
        }
        cur = g.RandomInNeighbor(cur, &rng);
        hub_side = true;
      }
      ++out->manual_steps;
      visit(cur, hub_side);
    }
    return Status::OK();
  }

  /// k highest-authority nodes of a stitched walk, excluding the seed and
  /// (optionally) its direct out-neighbours. The walk accumulates into
  /// `scratch`, which the caller reuses across calls.
  Status TopKAuthoritiesInto(NodeId seed, std::size_t k, uint64_t length,
                             bool exclude_friends, uint64_t rng_seed,
                             SalsaWalkScratch* scratch,
                             std::vector<ScoredNode>* ranked,
                             SalsaWalkResult* walk_stats = nullptr) const {
    FASTPPR_CHECK(ranked != nullptr);
    SalsaWalkResult local;
    SalsaWalkResult* stats = walk_stats != nullptr ? walk_stats : &local;
    FASTPPR_RETURN_IF_ERROR(Walk(seed, length, rng_seed, scratch, stats));
    scratch->MarkExcluded(seed);
    if (exclude_friends) {
      for (NodeId v : graph_->OutNeighbors(seed)) {
        scratch->MarkExcluded(v);
      }
    }
    RankVisitsDenseInto(scratch->authority_counts,
                        scratch->authority_visited, scratch->excluded, k,
                        stats->length, &scratch->ranked_tmp, ranked);
    return Status::OK();
  }

  /// TopKAuthoritiesInto on this thread's own scratch (a fresh one per
  /// call would cost a page-faulting O(num_nodes) allocation per query).
  Status TopKAuthorities(NodeId seed, std::size_t k, uint64_t length,
                         bool exclude_friends, uint64_t rng_seed,
                         std::vector<ScoredNode>* ranked,
                         SalsaWalkResult* walk_stats = nullptr) const {
    thread_local SalsaWalkScratch scratch;
    return TopKAuthoritiesInto(seed, k, length, exclude_friends, rng_seed,
                               &scratch, ranked, walk_stats);
  }

 private:
  /// Aborts (instead of dereferencing) on a null social store.
  static const DiGraph* CheckedGraph(const SocialStore* social) {
    FASTPPR_CHECK(social != nullptr);
    return &social->graph();
  }

  const StoreView* store_;
  const GraphView* graph_;
  WalkerOptions options_;
};

/// The flat (single-store) walker used throughout the reproduction.
using PersonalizedSalsaWalker = BasicPersonalizedSalsaWalker<SalsaWalkStore>;

}  // namespace fastppr

#endif  // FASTPPR_CORE_SALSA_WALKER_H_
