#ifndef FASTPPR_CORE_PPR_WALKER_H_
#define FASTPPR_CORE_PPR_WALKER_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fastppr/core/theory.h"
#include "fastppr/graph/digraph.h"
#include "fastppr/graph/types.h"
#include "fastppr/serve/deadline.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/check.h"
#include "fastppr/util/random.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// What one "fetch" to the walk database returns (Remark 1 of the paper).
enum class FetchMode {
  /// Default: all R stored segments plus the full adjacency list; manual
  /// steps after the segments are exhausted are then free.
  kSegmentsAndAllEdges,
  /// Memory-friendly variant: the first fetch returns the segments; every
  /// manual step costs one more fetch (for one sampled out-edge). At most
  /// a factor-2 more fetches (Remark 1).
  kSegmentsAndOneEdge,
};

/// Appended positions between a walk's deadline polls: amortizes the
/// clock read and bounds the overrun past expiry to a few µs of walk
/// work.
inline constexpr uint64_t kDeadlineCheckStride = 256;

struct WalkerOptions {
  FetchMode fetch_mode = FetchMode::kSegmentsAndAllEdges;
  /// 0 = unlimited. Otherwise the walk aborts with ResourceExhausted once
  /// the fetch budget is spent (failure-injection hook for tests).
  uint64_t max_fetches = 0;
  /// Cooperative cancellation: the walk loop polls `deadline.expired()`
  /// every kDeadlineCheckStride appended positions and aborts with
  /// DeadlineExceeded instead of burning budget on a request nobody is
  /// waiting for. Default: infinite (has_deadline() is a plain compare,
  /// so an unexpiring walk reads no clock).
  serve::Deadline deadline = serve::Deadline::Infinite();
};

/// Counters of one stitched personalized walk. The visits themselves
/// are counted in the walk's scratch (BasicWalkScratch).
struct PersonalizedWalkResult {
  uint64_t length = 0;         ///< total positions appended
  uint64_t fetches = 0;        ///< calls to the walk database (Figure 6)
  uint64_t segments_used = 0;  ///< stored segments consumed
  uint64_t manual_steps = 0;   ///< steps taken after segments ran out
  uint64_t resets = 0;         ///< jumps back to the seed
};

/// A ranked recommendation.
struct ScoredNode {
  NodeId node = kInvalidNode;
  int64_t visits = 0;
  double score = 0.0;  ///< visit frequency within the walk
};

/// Ranks a walk's dense visit counts into ScoredNodes: `touched` lists
/// the nodes whose `counts` slot is live (in first-visit order),
/// `excluded` is a dense flag array. The partial_sort comparator (visits
/// desc, node asc) is a strict total order over distinct nodes, so the
/// visit order cannot leak into the output. `tmp` is caller-owned
/// scratch whose capacity is retained across calls.
void RankVisitsDenseInto(const std::vector<int64_t>& counts,
                         const std::vector<NodeId>& touched,
                         const std::vector<uint8_t>& excluded, std::size_t k,
                         uint64_t walk_length, std::vector<ScoredNode>* tmp,
                         std::vector<ScoredNode>* ranked);

/// The dense accumulator of a personalized walk: O(num_nodes) arrays
/// allocated once per scratch and reset in O(nodes touched) between
/// walks, so one scratch serves any number of walks in turn (each serving
/// worker owns one). Visits and consumed segments are kept per side of
/// the walk (Steps::kSides; SALSA counts hub and authority visits apart).
/// A walk that aborts mid-way (deadline, fetch budget) leaves the arrays
/// dirty; Prepare() runs at the start of every walk and self-heals from
/// the touched lists.
template <typename Steps>
struct BasicWalkScratch {
  /// used[0][v] == kNotFetched means v has not been fetched this walk;
  /// otherwise used[s][v] holds the number of v's side-s segments
  /// consumed (every side is zeroed when v is fetched).
  static constexpr uint32_t kNotFetched = 0xFFFFFFFFu;

  /// Per side: counts[s][v] is live iff v is in visited[s], which is in
  /// first-visit order.
  std::array<std::vector<int64_t>, Steps::kSides> counts;
  std::array<std::vector<NodeId>, Steps::kSides> visited;
  std::array<std::vector<uint32_t>, Steps::kSides> used;
  std::vector<NodeId> fetched;     ///< nodes with used[0][v] != kNotFetched
  std::vector<uint8_t> excluded;   ///< dense exclusion flags for ranking
  std::vector<NodeId> excluded_nodes;
  std::vector<ScoredNode> ranked_tmp;

  void Prepare(std::size_t num_nodes) {
    if (excluded.size() != num_nodes) {
      for (uint32_t s = 0; s < Steps::kSides; ++s) {
        counts[s].assign(num_nodes, 0);
        used[s].assign(num_nodes, kNotFetched);
      }
      excluded.assign(num_nodes, 0);
    } else {
      for (uint32_t s = 0; s < Steps::kSides; ++s) {
        for (NodeId v : visited[s]) counts[s][v] = 0;
        for (NodeId v : fetched) used[s][v] = kNotFetched;
      }
      for (NodeId v : excluded_nodes) excluded[v] = 0;
    }
    for (std::vector<NodeId>& v : visited) v.clear();
    fetched.clear();
    excluded_nodes.clear();
  }

  void MarkExcluded(NodeId v) {
    if (!excluded[v]) {
      excluded[v] = 1;
      excluded_nodes.push_back(v);
    }
  }
};

using PersonalizedWalkScratch = BasicWalkScratch<PageRankSteps>;

/// Algorithm 1 of the paper: a personalized walk from a seed that
/// opportunistically consumes the stored walk segments (one use each) and
/// falls back to manual steps on the fetched adjacency afterwards. The
/// walk follows the store's step policy: for SALSA it alternates forward
/// (hub side) and backward (authority side) steps, resets to the seed on
/// side 0 only, and stitches the stored segments that start on the walk's
/// current side. Its visits are counted into a caller-owned
/// BasicWalkScratch, the walk's only accumulator, and TopK ranks the
/// policy's rank side.
///
/// `StoreView` abstracts where the segments live: a flat store, a
/// sharded view that routes GetSegment(u, k) to the shard owning u, or a
/// frozen snapshot view (engine/query_service.h). It must provide
/// walks_per_node(), epsilon() and GetSegment(node, k) returning a
/// SegmentView-like object; slot k holds a segment starting on side
/// k / walks_per_node().
///
/// `GraphView` abstracts where the adjacency lives: the live DiGraph (the
/// flat deployment — safe only while the graph epoch is frozen) or a
/// FrozenAdjacency view of the versioned copy (concurrent serving under
/// live ingestion; WITH its in side for SALSA, whose walks step
/// backwards). It
/// must provide num_nodes(), OutNeighbors() and the side-indexed degree
/// and sampling calls of SideDegree/SideNeighbor with DiGraph's
/// semantics.
///
/// Distribution note: when an unused stored segment exists at the walk
/// head, its tail is appended and the walk then resets to the seed — the
/// stored segment already embodies the geometric reset draw, so no separate
/// beta draw is made (this is distribution-identical to the paper's
/// pseudocode and avoids biasing zero-length segments; see DESIGN.md).
template <typename Steps, typename StoreView, typename GraphView = DiGraph>
class BasicPersonalizedWalker {
 public:
  using Scratch = BasicWalkScratch<Steps>;

  BasicPersonalizedWalker(const StoreView* store, const GraphView* graph,
                          WalkerOptions options = WalkerOptions())
      : store_(store), graph_(graph), options_(options) {
    FASTPPR_CHECK(store_ != nullptr && graph_ != nullptr);
  }

  /// Runs a stitched walk of (at least) `length` positions from `seed`,
  /// counting its visits into `scratch`: on return `scratch->visited[s]`
  /// lists the nodes visited on side s in first-visit order and
  /// `scratch->counts[s][v]` holds v's visits there. A walk that aborts
  /// (deadline, fetch budget) leaves its partial counts there; the next
  /// walk on the scratch resets them.
  Status Walk(NodeId seed, uint64_t length, uint64_t rng_seed,
              Scratch* scratch, PersonalizedWalkResult* out) const {
    FASTPPR_CHECK(scratch != nullptr && out != nullptr);
    if (seed >= graph_->num_nodes()) {
      return Status::InvalidArgument("seed node out of range");
    }
    scratch->Prepare(graph_->num_nodes());
    *out = PersonalizedWalkResult{};
    // A request that arrives already expired does zero accumulation:
    // the serving tier counts it as deadline-expired, not served.
    const serve::Deadline& deadline = options_.deadline;
    if (deadline.expired()) {
      return Status::DeadlineExceeded("walk deadline expired");
    }
    uint64_t next_deadline_poll = kDeadlineCheckStride;
    Rng rng(rng_seed);
    const std::size_t R = store_->walks_per_node();
    const double eps = store_->epsilon();
    const GraphView& g = *graph_;
    Scratch& s = *scratch;

    // The walk's head: node `cur`, at a position on `side`.
    NodeId cur = seed;
    uint32_t side = 0;
    auto visit = [&s, out](NodeId v, uint32_t at) {
      if (s.counts[at][v]++ == 0) s.visited[at].push_back(v);
      ++out->length;
    };
    auto charge_fetch = [this, out]() -> bool {
      ++out->fetches;
      return options_.max_fetches == 0 ||
             out->fetches <= options_.max_fetches;
    };
    // A session ends (reset, dangling exit, consumed segment): the walk
    // restarts at the seed on side 0.
    auto reset_to_seed = [&]() {
      visit(seed, 0);
      ++out->resets;
      cur = seed;
      side = 0;
    };

    visit(seed, 0);
    while (out->length < length) {
      // Cooperative cancellation, polled every kDeadlineCheckStride
      // appended positions (segment tails advance length in bulk, so the
      // poll keys on length, not loop iterations).
      if (deadline.has_deadline() && out->length >= next_deadline_poll) {
        if (deadline.expired()) {
          return Status::DeadlineExceeded("walk deadline expired");
        }
        next_deadline_poll = out->length + kDeadlineCheckStride;
      }
      if (s.used[0][cur] == Scratch::kNotFetched) {
        // First arrival: fetch the node (its segments + adjacency).
        if (!charge_fetch()) {
          return Status::ResourceExhausted("fetch budget exhausted");
        }
        for (std::vector<uint32_t>& used : s.used) used[cur] = 0;
        s.fetched.push_back(cur);
      }
      uint32_t& consumed = s.used[side][cur];
      if (consumed < R) {
        // Consume one stored segment starting on this side (slots
        // [side * R, side * R + R)): append its tail, then the session
        // is over and the walk resets to the seed.
        const auto seg = store_->GetSegment(cur, side * R + consumed);
        ++consumed;
        ++out->segments_used;
        uint32_t at = side;
        for (std::size_t p = 1; p < seg.size() && out->length < length;
             ++p) {
          at = NextSide<Steps>(at);
          visit(seg.node(p), at);
        }
        if (out->length < length) reset_to_seed();
        continue;
      }
      // Segments exhausted at cur: manual simulation. Resets are drawn
      // only before side-0 steps.
      if (side == 0 && rng.Bernoulli(eps)) {
        reset_to_seed();
        continue;
      }
      if (options_.fetch_mode == FetchMode::kSegmentsAndOneEdge) {
        // Each manual step costs one fetch returning one sampled edge.
        if (!charge_fetch()) {
          return Status::ResourceExhausted("fetch budget exhausted");
        }
      }
      if (SideDegree<Steps>(g, side, cur) == 0) {
        // Dangling: the session ends exactly like a reset.
        reset_to_seed();
        continue;
      }
      cur = SideNeighbor<Steps>(g, side, cur, &rng);
      side = NextSide<Steps>(side);
      ++out->manual_steps;
      visit(cur, side);
    }
    return Status::OK();
  }

  /// Returns the k nodes most visited on the rank side of a stitched
  /// walk of the given length, excluding the seed itself and
  /// (optionally) the seed's direct out-neighbours — a recommender never
  /// recommends existing friends (Remark 3 of the paper). The walk
  /// accumulates into `scratch`, which the caller reuses across calls.
  Status TopKInto(NodeId seed, std::size_t k, uint64_t length,
                  bool exclude_friends, uint64_t rng_seed, Scratch* scratch,
                  std::vector<ScoredNode>* ranked,
                  PersonalizedWalkResult* walk_stats = nullptr) const {
    FASTPPR_CHECK(ranked != nullptr);
    PersonalizedWalkResult local;
    PersonalizedWalkResult* stats =
        walk_stats != nullptr ? walk_stats : &local;
    FASTPPR_RETURN_IF_ERROR(Walk(seed, length, rng_seed, scratch, stats));
    scratch->MarkExcluded(seed);
    if (exclude_friends) {
      for (NodeId v : graph_->OutNeighbors(seed)) {
        scratch->MarkExcluded(v);
      }
    }
    constexpr uint32_t kRank = Steps::kRankSide;
    RankVisitsDenseInto(scratch->counts[kRank], scratch->visited[kRank],
                        scratch->excluded, k, stats->length,
                        &scratch->ranked_tmp, ranked);
    return Status::OK();
  }

  /// TopKInto on this thread's own scratch (a fresh one per call would
  /// cost a page-faulting O(num_nodes) allocation per query).
  Status TopK(NodeId seed, std::size_t k, uint64_t length,
              bool exclude_friends, uint64_t rng_seed,
              std::vector<ScoredNode>* ranked,
              PersonalizedWalkResult* walk_stats = nullptr) const {
    thread_local Scratch scratch;
    return TopKInto(seed, k, length, exclude_friends, rng_seed, &scratch,
                    ranked, walk_stats);
  }

  /// TopK with the walk length chosen by equation (4) of the paper:
  /// s_k = (c/(1-alpha)) * k * (n/k)^{1-alpha}, the length at which each
  /// of the true top-k nodes is expected to be visited `c` times under
  /// the power-law score model with exponent `alpha`.
  Status TopKWithTheoryLength(NodeId seed, std::size_t k, double alpha,
                              double c, bool exclude_friends,
                              uint64_t rng_seed,
                              std::vector<ScoredNode>* ranked,
                              PersonalizedWalkResult* walk_stats =
                                  nullptr) const {
    if (!(alpha > 0.0 && alpha < 1.0)) {
      return Status::InvalidArgument("alpha must be in (0, 1)");
    }
    if (k == 0) return Status::InvalidArgument("k must be positive");
    const double s = WalkLengthForTopK(k, graph_->num_nodes(), alpha, c);
    const uint64_t length =
        static_cast<uint64_t>(std::llround(std::max(1.0, s)));
    return TopK(seed, k, length, exclude_friends, rng_seed, ranked,
                walk_stats);
  }

 private:
  const StoreView* store_;
  const GraphView* graph_;
  WalkerOptions options_;
};

/// The flat (single-store) walkers used throughout the reproduction.
using PersonalizedPageRankWalker =
    BasicPersonalizedWalker<PageRankSteps, WalkStore>;
using PersonalizedSalsaWalker =
    BasicPersonalizedWalker<SalsaSteps, SalsaWalkStore>;

}  // namespace fastppr

#endif  // FASTPPR_CORE_PPR_WALKER_H_
