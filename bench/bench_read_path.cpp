// The personalized read path, priced per walk on three stores at the
// same epoch (ROADMAP item 8; DESIGN.md §6).
//
// The deployment is perfbench's: a directed Chung-Lu graph (n = 100k,
// alpha_in 0.76, alpha_out 0.55, 1M draws, 80% loaded, the rest held
// out for inserts), R = 10, eps = 0.2, S = 2 shards on 2 repair threads
// behind a QueryService. Churn comes in windows of 4096 events: each
// event deletes a random live edge with probability 1/2, otherwise it
// inserts a held-out edge. After every window (and its Quiesce()) the
// same seeds run the same personalized top-10 walks (length 2000,
// friends excluded, fixed RNG seeds) through three read paths:
//
//   * frozen — QueryService::PersonalizedTopKInto on the published view;
//   * live   — the same walker over the live shard stores and the live
//              graph (safe here: the engine is drained and idle);
//   * csr    — the same walker over a flat u32 copy of every segment
//              and of the out-adjacency, rebuilt at the window.
//
// Each path's per-walk time is the best of 3 passes over the seeds. The
// frozen and CSR answers must equal the live answers node for node and
// visit for visit (FASTPPR_CHECK), so the three columns time the same
// walks and differ only in where the rows come from. The frozen column
// must not grow with publish history: its last-10-window mean over its
// first-10-window mean is reported as frozen_growth_last10_vs_first10.
//
//   bench_read_path [--smoke] [--json <path>]
//
// --smoke shrinks the graph, the window count and the seed count to CI
// size.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/generators.h"
#include "fastppr/store/walk_slab.h"
#include "fastppr/util/check.h"
#include "fastppr/util/shard.h"
#include "fastppr/util/table_printer.h"
#include "fastppr/util/timer.h"

using namespace fastppr;
using namespace fastppr::bench;

namespace {

using Engine = ShardedEngine<IncrementalPageRank>;

struct Config {
  std::size_t nodes = 100000;
  std::size_t draws = 1000000;
  std::size_t windows = 40;
  std::size_t window_events = 4096;
  std::size_t seeds = 300;
};

/// perfbench's churn: delete a uniformly random live edge with
/// probability 1/2, otherwise insert a held-out edge (re-inserting
/// deleted ones once the pool is empty). No event is ever rejected.
class Churn {
 public:
  Churn(std::vector<Edge> live, std::vector<Edge> pool, uint64_t seed)
      : live_(std::move(live)), pool_(std::move(pool)), rng_(seed) {}

  EdgeEvent Next() {
    const bool can_insert = !pool_.empty() || !deleted_.empty();
    if (live_.empty() || (can_insert && !rng_.Bernoulli(0.5))) {
      Edge e;
      if (!pool_.empty()) {
        e = pool_.back();
        pool_.pop_back();
      } else {
        e = TakeAt(&deleted_, rng_.UniformIndex(deleted_.size()));
      }
      live_.push_back(e);
      return EdgeEvent{EdgeEvent::Kind::kInsert, e};
    }
    const Edge e = TakeAt(&live_, rng_.UniformIndex(live_.size()));
    deleted_.push_back(e);
    return EdgeEvent{EdgeEvent::Kind::kDelete, e};
  }

 private:
  static Edge TakeAt(std::vector<Edge>* v, std::size_t i) {
    const Edge e = (*v)[i];
    (*v)[i] = v->back();
    v->pop_back();
    return e;
  }

  std::vector<Edge> live_;
  std::vector<Edge> pool_;
  std::vector<Edge> deleted_;
  Rng rng_;
};

/// StoreView over the live shard stores (each node's segments live in
/// its owner shard's store).
class LiveStoreView {
 public:
  explicit LiveStoreView(Engine* engine) {
    for (std::size_t s = 0; s < engine->num_shards(); ++s) {
      stores_.push_back(&engine->shard(s).walk_store());
    }
  }
  std::size_t walks_per_node() const { return stores_[0]->walks_per_node(); }
  double epsilon() const { return stores_[0]->epsilon(); }
  WalkStore::SegmentView GetSegment(NodeId u, std::size_t k) const {
    const auto S = static_cast<uint32_t>(stores_.size());
    return stores_[ShardOfNode(u, S)]->GetSegment(u, k);
  }

 private:
  std::vector<const WalkStore*> stores_;
};

/// Flat u32 copy of every segment's node ids and of the out-adjacency,
/// in the live rows' order (so sampling draws the same neighbours). It
/// is its own StoreView and GraphView.
class CsrCopy {
 public:
  class Segment {
   public:
    explicit Segment(std::span<const NodeId> ids) : ids_(ids) {}
    std::size_t size() const { return ids_.size(); }
    NodeId node(std::size_t p) const { return ids_[p]; }

   private:
    std::span<const NodeId> ids_;
  };

  void Build(Engine* engine) {
    const std::size_t n = engine->num_nodes();
    const WalkStore& first = engine->shard(0).walk_store();
    walks_per_node_ = first.walks_per_node();
    epsilon_ = first.epsilon();
    spn_ = first.segments_per_node();
    seg_off_.assign(1, 0);
    seg_ids_.clear();
    const auto S = static_cast<uint32_t>(engine->num_shards());
    for (NodeId u = 0; u < n; ++u) {
      const WalkStore& store = engine->shard(ShardOfNode(u, S)).walk_store();
      for (std::size_t k = 0; k < spn_; ++k) {
        for (uint64_t w : store.SegmentWords(u * spn_ + k)) {
          seg_ids_.push_back(static_cast<NodeId>(slab::Hi(w)));
        }
        seg_off_.push_back(seg_ids_.size());
      }
    }
    const DiGraph& g = engine->graph();
    out_off_.assign(1, 0);
    out_ids_.clear();
    for (NodeId v = 0; v < n; ++v) {
      const auto row = g.OutNeighbors(v);
      out_ids_.insert(out_ids_.end(), row.begin(), row.end());
      out_off_.push_back(out_ids_.size());
    }
  }

  std::size_t walks_per_node() const { return walks_per_node_; }
  double epsilon() const { return epsilon_; }
  Segment GetSegment(NodeId u, std::size_t k) const {
    const uint64_t seg = u * spn_ + k;
    return Segment(std::span<const NodeId>(
        seg_ids_.data() + seg_off_[seg], seg_off_[seg + 1] - seg_off_[seg]));
  }

  std::size_t num_nodes() const { return out_off_.size() - 1; }
  std::size_t OutDegree(NodeId v) const {
    return out_off_[v + 1] - out_off_[v];
  }
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return std::span<const NodeId>(out_ids_.data() + out_off_[v],
                                   OutDegree(v));
  }
  NodeId RandomOutNeighbor(NodeId v, Rng* rng) const {
    const auto outs = OutNeighbors(v);
    if (outs.empty()) return kInvalidNode;
    return outs[rng->UniformIndex(outs.size())];
  }
  // PageRank walks never step along in-edges; the copy has none.
  std::size_t InDegree(NodeId) const {
    FASTPPR_CHECK_MSG(false, "the CSR copy has no in side");
    return 0;
  }
  NodeId RandomInNeighbor(NodeId, Rng*) const {
    FASTPPR_CHECK_MSG(false, "the CSR copy has no in side");
    return kInvalidNode;
  }

 private:
  std::size_t walks_per_node_ = 0;
  double epsilon_ = 0.0;
  std::size_t spn_ = 0;
  std::vector<uint64_t> seg_off_;
  std::vector<NodeId> seg_ids_;
  std::vector<uint64_t> out_off_;
  std::vector<NodeId> out_ids_;
};

struct Answer {
  std::vector<ScoredNode> ranked;
  PersonalizedWalkResult walk;
};

void CheckSame(const Answer& a, const Answer& b, const char* what) {
  FASTPPR_CHECK_MSG(a.ranked.size() == b.ranked.size(), what);
  for (std::size_t r = 0; r < a.ranked.size(); ++r) {
    FASTPPR_CHECK_MSG(a.ranked[r].node == b.ranked[r].node &&
                          a.ranked[r].visits == b.ranked[r].visits,
                      what);
  }
  FASTPPR_CHECK_MSG(a.walk.length == b.walk.length &&
                        a.walk.fetches == b.walk.fetches &&
                        a.walk.segments_used == b.walk.segments_used &&
                        a.walk.manual_steps == b.walk.manual_steps,
                    what);
}

/// Best-of-3 microseconds per walk of `walk(i, answer)` over every seed.
/// The answers of the last pass are left in `answers`.
template <typename WalkFn>
double BestUsPerWalk(std::size_t seeds, std::vector<Answer>* answers,
                     const WalkFn& walk) {
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    WallTimer timer;
    for (std::size_t i = 0; i < seeds; ++i) walk(i, &(*answers)[i]);
    const double us = timer.ElapsedSeconds() * 1e6 /
                      static_cast<double>(seeds);
    best = pass == 0 ? us : std::min(best, us);
  }
  return best;
}

double Mean(const std::vector<double>& v, std::size_t lo, std::size_t hi) {
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::string json_path =
      JsonPathFromArgs(argc, argv, ResultsDir() + "/BENCH_read_path.json");
  Banner("Personalized read path: frozen view vs live stores vs u32 CSR",
         "Theorem 8 / Corollary 9 fetch costs, priced in wall time");

  Config cfg;
  if (smoke) {
    cfg.nodes = 10000;
    cfg.draws = 100000;
    cfg.windows = 6;
    cfg.window_events = 1024;
    cfg.seeds = 40;
  }
  constexpr std::size_t kTopK = 10;
  constexpr uint64_t kLength = 2000;
  constexpr std::size_t kMinSeedOutDegree = 3;

  // Graph and churn, generated up front.
  Rng graph_rng(1011);
  ChungLuOptions gen;
  gen.num_nodes = cfg.nodes;
  gen.num_edges = cfg.draws;
  gen.alpha_in = 0.76;
  gen.alpha_out = 0.55;
  std::vector<Edge> edges = ChungLuDirected(gen, &graph_rng);
  graph_rng.Shuffle(&edges);
  const std::size_t pool_size = edges.size() / 5;
  std::vector<Edge> pool(edges.end() - pool_size, edges.end());
  edges.resize(edges.size() - pool_size);
  DiGraph initial(cfg.nodes);
  for (const Edge& e : edges) {
    FASTPPR_CHECK(initial.AddEdge(e.src, e.dst).ok());
  }
  std::vector<std::size_t> outdeg(cfg.nodes);
  for (NodeId v = 0; v < cfg.nodes; ++v) outdeg[v] = initial.OutDegree(v);
  std::vector<std::size_t> min_outdeg = outdeg;
  Churn churn(std::move(edges), std::move(pool), 2022);
  std::vector<EdgeEvent> events;
  events.reserve(cfg.windows * cfg.window_events);
  for (std::size_t i = 0; i < cfg.windows * cfg.window_events; ++i) {
    const EdgeEvent ev = churn.Next();
    std::size_t& d = outdeg[ev.edge.src];
    d = ev.kind == EdgeEvent::Kind::kInsert ? d + 1 : d - 1;
    min_outdeg[ev.edge.src] = std::min(min_outdeg[ev.edge.src], d);
    events.push_back(ev);
  }
  // Seeds keep out-degree >= 3 throughout, so every window asks the
  // same well-defined questions.
  std::vector<NodeId> seeds;
  for (NodeId v = 0; v < cfg.nodes; ++v) {
    if (min_outdeg[v] >= kMinSeedOutDegree) seeds.push_back(v);
  }
  Rng seed_rng(3033);
  seed_rng.Shuffle(&seeds);
  FASTPPR_CHECK_MSG(seeds.size() >= cfg.seeds, "too few eligible seeds");
  seeds.resize(cfg.seeds);
  std::vector<uint64_t> rng_seeds(cfg.seeds);
  for (uint64_t& s : rng_seeds) s = seed_rng.NextUint64();

  MonteCarloOptions mc;
  mc.walks_per_node = 10;
  mc.epsilon = 0.2;
  mc.seed = 4044;
  WallTimer setup_timer;
  Engine engine(initial, mc, ShardedOptions{2, 2});
  QueryService<IncrementalPageRank> service(&engine);
  std::printf("n = %zu, m = %zu, %zu windows of %zu events, %zu seeds; "
              "set-up %.1f s\n\n",
              cfg.nodes, engine.num_edges(), cfg.windows, cfg.window_events,
              cfg.seeds, setup_timer.ElapsedSeconds());

  QueryService<IncrementalPageRank>::PersonalizedScratch frozen_scratch;
  PersonalizedWalkScratch live_scratch;
  PersonalizedWalkScratch csr_scratch;
  std::vector<Answer> frozen(cfg.seeds), live(cfg.seeds), csr(cfg.seeds);
  CsrCopy copy;
  std::vector<double> frozen_us, live_us, csr_us;
  double fetches = 0.0;
  TablePrinter table({"window", "frozen us/walk", "live us/walk",
                      "csr us/walk", "frozen / live"});
  for (std::size_t w = 0; w < cfg.windows; ++w) {
    FASTPPR_CHECK(service
                      .Ingest(std::span<const EdgeEvent>(
                          events.data() + w * cfg.window_events,
                          cfg.window_events))
                      .ok());
    service.Quiesce();

    frozen_us.push_back(
        BestUsPerWalk(cfg.seeds, &frozen, [&](std::size_t i, Answer* a) {
          SnapshotInfo info;
          FASTPPR_CHECK(service
                            .PersonalizedTopKInto(
                                seeds[i], kTopK, kLength,
                                /*exclude_friends=*/true, rng_seeds[i],
                                WalkerOptions(), &frozen_scratch, &a->ranked,
                                &a->walk, &info)
                            .ok());
          FASTPPR_CHECK(info.min_epoch == w + 1 && info.max_epoch == w + 1);
        }));

    const LiveStoreView live_view(&engine);
    const BasicPersonalizedWalker<PageRankSteps, LiveStoreView, DiGraph>
        live_walker(&live_view, &engine.graph());
    live_us.push_back(
        BestUsPerWalk(cfg.seeds, &live, [&](std::size_t i, Answer* a) {
          FASTPPR_CHECK(live_walker
                            .TopKInto(seeds[i], kTopK, kLength,
                                      /*exclude_friends=*/true, rng_seeds[i],
                                      &live_scratch, &a->ranked, &a->walk)
                            .ok());
        }));

    copy.Build(&engine);
    const BasicPersonalizedWalker<PageRankSteps, CsrCopy, CsrCopy>
        csr_walker(&copy, &copy);
    csr_us.push_back(
        BestUsPerWalk(cfg.seeds, &csr, [&](std::size_t i, Answer* a) {
          FASTPPR_CHECK(csr_walker
                            .TopKInto(seeds[i], kTopK, kLength,
                                      /*exclude_friends=*/true, rng_seeds[i],
                                      &csr_scratch, &a->ranked, &a->walk)
                            .ok());
        }));

    for (std::size_t i = 0; i < cfg.seeds; ++i) {
      CheckSame(frozen[i], live[i], "frozen answer differs from live");
      CheckSame(csr[i], live[i], "CSR answer differs from live");
      fetches += static_cast<double>(live[i].walk.fetches);
    }
    table.AddRow({std::to_string(w + 1), TablePrinter::Fmt(frozen_us[w], 1),
                  TablePrinter::Fmt(live_us[w], 1),
                  TablePrinter::Fmt(csr_us[w], 1),
                  TablePrinter::Fmt(frozen_us[w] / live_us[w], 2)});
  }
  table.Print();

  const std::size_t W = cfg.windows;
  const std::size_t tail =
      std::min<std::size_t>(10, std::max<std::size_t>(1, W / 2));
  const double frozen_mean = Mean(frozen_us, 0, W);
  const double live_mean = Mean(live_us, 0, W);
  const double csr_mean = Mean(csr_us, 0, W);
  const double first = Mean(frozen_us, 0, tail);
  const double last = Mean(frozen_us, W - tail, W);
  const double walks = static_cast<double>(W * cfg.seeds);
  std::printf("\nmeans over %zu windows: frozen %.1f us, live %.1f us, "
              "csr %.1f us per walk; frozen / live %.2f; frozen last-%zu "
              "/ first-%zu mean %.2f; %.1f fetches per walk\n",
              W, frozen_mean, live_mean, csr_mean, frozen_mean / live_mean,
              tail, tail, last / first, fetches / walks);

  JsonReport report("read_path");
  report.Add("windows", static_cast<double>(W));
  report.Add("window_events", static_cast<double>(cfg.window_events));
  report.Add("seeds", static_cast<double>(cfg.seeds));
  report.Add("frozen_us_per_walk", frozen_mean);
  report.Add("live_us_per_walk", live_mean);
  report.Add("csr_us_per_walk", csr_mean);
  report.Add("frozen_vs_live", frozen_mean / live_mean);
  report.Add("frozen_us_first10", first);
  report.Add("frozen_us_last10", last);
  report.Add("frozen_growth_last10_vs_first10", last / first);
  report.Add("fetches_per_walk", fetches / walks);
  report.WriteTo(json_path);
  return 0;
}
