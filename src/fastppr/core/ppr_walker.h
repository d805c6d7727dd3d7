#ifndef FASTPPR_CORE_PPR_WALKER_H_
#define FASTPPR_CORE_PPR_WALKER_H_

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <vector>

#include "fastppr/core/theory.h"
#include "fastppr/graph/types.h"
#include "fastppr/serve/deadline.h"
#include "fastppr/store/social_store.h"
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
/// are counted in the walk's scratch (PersonalizedWalkScratch).
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

/// Ranks a walk's dense visit counts into ScoredNodes (shared by both
/// walkers): `touched` lists the nodes whose `counts` slot is live (in
/// first-visit order), `excluded` is a dense flag array. The
/// partial_sort comparator (visits desc, node asc) is a strict total
/// order over distinct nodes, so the visit order cannot leak into the
/// output. `tmp` is caller-owned scratch whose capacity is retained
/// across calls.
void RankVisitsDenseInto(const std::vector<int64_t>& counts,
                         const std::vector<NodeId>& touched,
                         const std::vector<uint8_t>& excluded, std::size_t k,
                         uint64_t walk_length, std::vector<ScoredNode>* tmp,
                         std::vector<ScoredNode>* ranked);

/// The dense accumulator of a personalized PageRank walk: O(num_nodes)
/// arrays allocated once per scratch and reset in O(nodes touched)
/// between walks, so one scratch serves any number of walks in turn
/// (each serving worker owns one). A walk that aborts mid-way (deadline,
/// fetch budget) leaves the arrays dirty; Prepare() runs at the start of
/// every walk and self-heals from the touched lists.
struct PersonalizedWalkScratch {
  /// used[v] == kNotFetched means v has not been fetched this walk;
  /// otherwise it holds the number of stored segments consumed at v.
  static constexpr uint32_t kNotFetched = 0xFFFFFFFFu;

  std::vector<int64_t> counts;     ///< live iff the node is in `visited`
  std::vector<NodeId> visited;     ///< first-visit order
  std::vector<uint32_t> used;      ///< consumed segments, kNotFetched gate
  std::vector<NodeId> fetched;     ///< nodes with used[v] != kNotFetched
  std::vector<uint8_t> excluded;   ///< dense exclusion flags for ranking
  std::vector<NodeId> excluded_nodes;
  std::vector<ScoredNode> ranked_tmp;

  void Prepare(std::size_t num_nodes) {
    if (counts.size() != num_nodes) {
      counts.assign(num_nodes, 0);
      used.assign(num_nodes, kNotFetched);
      excluded.assign(num_nodes, 0);
    } else {
      for (NodeId v : visited) counts[v] = 0;
      for (NodeId v : fetched) used[v] = kNotFetched;
      for (NodeId v : excluded_nodes) excluded[v] = 0;
    }
    visited.clear();
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

/// Algorithm 1 of the paper: a personalized PageRank walk from a seed that
/// opportunistically consumes the stored walk segments (one use each) and
/// falls back to manual steps on the fetched adjacency afterwards. Its
/// visits are counted into a caller-owned PersonalizedWalkScratch, the
/// walk's only accumulator.
///
/// `StoreView` abstracts where the segments live: a flat WalkStore, a
/// sharded view that routes GetSegment(u, k) to the shard owning u, or a
/// frozen snapshot view (engine/query_service.h). It must provide
/// walks_per_node(), epsilon() and GetSegment(node, k) returning a
/// SegmentView-like object.
///
/// `GraphView` abstracts where the adjacency lives: the live DiGraph (the
/// flat deployment — safe only while the graph epoch is frozen) or a
/// FrozenAdjacency copy (concurrent serving under live ingestion). It
/// must provide num_nodes(), OutDegree(), OutNeighbors() and
/// RandomOutNeighbor() with DiGraph's sampling semantics.
///
/// Distribution note: when an unused stored segment exists at the walk
/// head, its tail is appended and the walk then resets to the seed — the
/// stored segment already embodies the geometric reset draw, so no separate
/// beta draw is made (this is distribution-identical to the paper's
/// pseudocode and avoids biasing zero-length segments; see DESIGN.md).
template <typename StoreView, typename GraphView = DiGraph>
class BasicPersonalizedPageRankWalker {
 public:
  BasicPersonalizedPageRankWalker(const StoreView* store,
                                  const GraphView* graph,
                                  WalkerOptions options = WalkerOptions())
      : store_(store), graph_(graph), options_(options) {
    FASTPPR_CHECK(store_ != nullptr && graph_ != nullptr);
  }

  /// Flat-deployment convenience: walks the social store's (uncounted)
  /// local graph replica.
  BasicPersonalizedPageRankWalker(const StoreView* store,
                                  const SocialStore* social,
                                  WalkerOptions options = WalkerOptions())
    requires std::same_as<GraphView, DiGraph>
      : BasicPersonalizedPageRankWalker(store, CheckedGraph(social),
                                        options) {}

  /// Runs a stitched walk of (at least) `length` positions from `seed`,
  /// counting its visits into `scratch`: on return `scratch->visited`
  /// lists the visited nodes in first-visit order and
  /// `scratch->counts[v]` holds v's visits. A walk that aborts
  /// (deadline, fetch budget) leaves its partial counts there; the next
  /// walk on the scratch resets them.
  Status Walk(NodeId seed, uint64_t length, uint64_t rng_seed,
              PersonalizedWalkScratch* scratch,
              PersonalizedWalkResult* out) const {
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
    PersonalizedWalkScratch& s = *scratch;

    auto visit = [&s, out](NodeId v) {
      if (s.counts[v]++ == 0) s.visited.push_back(v);
      ++out->length;
    };
    auto charge_fetch = [this, out]() -> bool {
      ++out->fetches;
      return options_.max_fetches == 0 ||
             out->fetches <= options_.max_fetches;
    };

    NodeId cur = seed;
    visit(seed);
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
      uint32_t& consumed = s.used[cur];
      if (consumed == PersonalizedWalkScratch::kNotFetched) {
        // First arrival: fetch the node (its segments + adjacency).
        if (!charge_fetch()) {
          return Status::ResourceExhausted("fetch budget exhausted");
        }
        consumed = 0;
        s.fetched.push_back(cur);
      }
      if (consumed < R) {
        // Consume one stored segment: append its tail, then the session
        // is over and the walk resets to the seed.
        const auto seg = store_->GetSegment(cur, consumed);
        ++consumed;
        ++out->segments_used;
        for (std::size_t p = 1; p < seg.size() && out->length < length;
             ++p) {
          visit(seg.node(p));
        }
        if (out->length < length) {
          visit(seed);
          ++out->resets;
          cur = seed;
        }
        continue;
      }
      // Segments exhausted at cur: manual simulation.
      if (rng.Bernoulli(eps)) {
        visit(seed);
        ++out->resets;
        cur = seed;
        continue;
      }
      if (options_.fetch_mode == FetchMode::kSegmentsAndOneEdge) {
        // Each manual step costs one fetch returning one sampled edge.
        if (!charge_fetch()) {
          return Status::ResourceExhausted("fetch budget exhausted");
        }
      }
      if (g.OutDegree(cur) == 0) {
        // Dangling: the session ends exactly like a reset.
        visit(seed);
        ++out->resets;
        cur = seed;
        continue;
      }
      cur = g.RandomOutNeighbor(cur, &rng);
      ++out->manual_steps;
      visit(cur);
    }
    return Status::OK();
  }

  /// Returns the k most-visited nodes of a stitched walk of the given
  /// length, excluding the seed itself and (optionally) the seed's direct
  /// out-neighbours — a recommender never recommends existing friends
  /// (Remark 3 of the paper). The walk accumulates into `scratch`, which
  /// the caller reuses across calls.
  Status TopKInto(NodeId seed, std::size_t k, uint64_t length,
                  bool exclude_friends, uint64_t rng_seed,
                  PersonalizedWalkScratch* scratch,
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
    RankVisitsDenseInto(scratch->counts, scratch->visited, scratch->excluded,
                        k, stats->length, &scratch->ranked_tmp, ranked);
    return Status::OK();
  }

  /// TopKInto on this thread's own scratch (a fresh one per call would
  /// cost a page-faulting O(num_nodes) allocation per query).
  Status TopK(NodeId seed, std::size_t k, uint64_t length,
              bool exclude_friends, uint64_t rng_seed,
              std::vector<ScoredNode>* ranked,
              PersonalizedWalkResult* walk_stats = nullptr) const {
    thread_local PersonalizedWalkScratch scratch;
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
using PersonalizedPageRankWalker = BasicPersonalizedPageRankWalker<WalkStore>;

}  // namespace fastppr

#endif  // FASTPPR_CORE_PPR_WALKER_H_
