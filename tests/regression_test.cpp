// Cross-cutting regression tests: reproducibility guarantees, exact
// length accounting, multigraph switch fractions, and distribution
// properties not covered by the per-module suites.

#include <cmath>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/baseline/power_iteration.h"
#include "fastppr/baseline/salsa_exact.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/csr_graph.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/crc32c.h"

namespace fastppr {
namespace {

MonteCarloOptions Opts(std::size_t R, double eps, uint64_t seed) {
  MonteCarloOptions o;
  o.walks_per_node = R;
  o.epsilon = eps;
  o.seed = seed;
  return o;
}

TEST(ReproducibilityTest, SameSeedSameEngineState) {
  Rng rng(1);
  auto edges = ErdosRenyi(60, 400, &rng);
  IncrementalPageRank a(60, Opts(5, 0.2, 7));
  IncrementalPageRank b(60, Opts(5, 0.2, 7));
  for (const Edge& e : edges) {
    ASSERT_TRUE(a.AddEdge(e.src, e.dst).ok());
    ASSERT_TRUE(b.AddEdge(e.src, e.dst).ok());
  }
  for (NodeId v = 0; v < 60; ++v) {
    EXPECT_EQ(a.walk_store().VisitCount(v), b.walk_store().VisitCount(v));
  }
  EXPECT_EQ(a.lifetime_stats().walk_steps, b.lifetime_stats().walk_steps);
}

TEST(ReproducibilityTest, SameSeedSameWalk) {
  Rng rng(2);
  auto edges = ErdosRenyi(40, 300, &rng);
  DiGraph g(40);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  IncrementalPageRank engine(g, Opts(5, 0.2, 8));
  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.graph());
  PersonalizedWalkScratch s1, s2;
  PersonalizedWalkResult w1, w2;
  ASSERT_TRUE(walker.Walk(3, 5000, 99, &s1, &w1).ok());
  ASSERT_TRUE(walker.Walk(3, 5000, 99, &s2, &w2).ok());
  EXPECT_EQ(w1.length, w2.length);
  EXPECT_EQ(w1.fetches, w2.fetches);
  EXPECT_EQ(s1.visited, s2.visited);
  EXPECT_EQ(s1.counts, s2.counts);
}

TEST(WalkLengthTest, ExactLengthAccounting) {
  Rng rng(3);
  auto edges = ErdosRenyi(30, 200, &rng);
  DiGraph g(30);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  IncrementalPageRank engine(g, Opts(5, 0.2, 9));
  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.graph());
  PersonalizedWalkScratch scratch;
  for (uint64_t len : {1u, 2u, 17u, 1000u}) {
    PersonalizedWalkResult w;
    ASSERT_TRUE(walker.Walk(0, len, 10, &scratch, &w).ok());
    EXPECT_EQ(w.length, len);
  }
}

TEST(MultigraphTest, ParallelEdgeDoublesHopProbability) {
  // 0 -> {1, 2}, then add a second copy of 0 -> 1: fresh walks out of 0
  // should pick 1 with probability 2/3.
  DiGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.AddEdge(3, 0).ok());
  WalkStore store;
  store.Init(g, 4000, 0.2, 11);
  Rng rng(12);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  store.OnEdgeInserted(g, 0, 1, &rng);
  store.CheckConsistency(g);
  // Count the stored next-hops out of node 0.
  std::size_t to1 = 0, total = 0;
  for (NodeId u = 0; u < 4; ++u) {
    for (std::size_t k = 0; k < 4000; ++k) {
      const auto seg = store.GetSegment(u, k);
      for (std::size_t p = 0; p + 1 < seg.size(); ++p) {
        if (seg.node(p) != 0) continue;
        ++total;
        if (seg.node(p + 1) == 1) ++to1;
      }
    }
  }
  ASSERT_GT(total, 1000u);
  EXPECT_NEAR(static_cast<double>(to1) / static_cast<double>(total),
              2.0 / 3.0, 0.03);
}

TEST(SalsaStarTest, CenterDominatesAuthority) {
  // Star with reciprocated edges: leaves <-> center. At small eps the
  // center holds ~half the authority mass (indeg/m = 10/20).
  DiGraph g(11);
  for (NodeId leaf = 1; leaf <= 10; ++leaf) {
    ASSERT_TRUE(g.AddEdge(leaf, 0).ok());
    ASSERT_TRUE(g.AddEdge(0, leaf).ok());
  }
  IncrementalSalsa engine(g, Opts(50, 0.05, 13));
  EXPECT_GT(engine.NormalizedEstimate(0), 0.4);
  for (NodeId leaf = 1; leaf <= 10; ++leaf) {
    EXPECT_LT(engine.NormalizedEstimate(leaf), 0.1);
  }
  EXPECT_EQ(engine.TopK(1)[0], 0u);
}

TEST(EngineChurnTest, EstimatesSumToOneThroughout) {
  Rng rng(14);
  auto edges = ErdosRenyi(50, 400, &rng);
  ChurnStream stream(edges, 0.2, 50, &rng);
  IncrementalPageRank engine(50, Opts(5, 0.25, 15));
  std::size_t events = 0;
  while (auto ev = stream.Next()) {
    ASSERT_TRUE(engine.ApplyEvent(*ev).ok());
    if (++events % 100 == 0) {
      auto est = engine.NormalizedEstimates();
      double sum = 0.0;
      for (double x : est) sum += x;
      ASSERT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(EngineChurnTest, SalsaDirichletStreamKeepsInvariants) {
  Rng rng(16);
  DirichletStream stream(60, 800, &rng);
  IncrementalSalsa engine(60, Opts(5, 0.2, 17));
  while (auto ev = stream.Next()) {
    ASSERT_TRUE(engine.ApplyEvent(*ev).ok());
  }
  engine.CheckConsistency();
  // Authority frequencies over all nodes sum to 1.
  double sum = 0.0;
  for (NodeId v = 0; v < 60; ++v) sum += engine.NormalizedEstimate(v);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(WalkerIndependenceTest, DifferentSeedsDecorrelate) {
  Rng rng(18);
  auto edges = ErdosRenyi(100, 900, &rng);
  DiGraph g(100);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  IncrementalPageRank engine(g, Opts(3, 0.2, 19));
  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.graph());
  PersonalizedWalkScratch s1, s2;
  PersonalizedWalkResult w1, w2;
  ASSERT_TRUE(walker.Walk(5, 20000, 100, &s1, &w1).ok());
  ASSERT_TRUE(walker.Walk(5, 20000, 101, &s2, &w2).ok());
  // The stored segments are shared, so distributions agree, but manual
  // steps must differ: the walks should not be identical.
  EXPECT_NE(s1.counts, s2.counts);
}

TEST(StarTrapTest, IncrementalSurvivesStarCollapse) {
  // Build a star, then delete the centre's out-edges one by one until it
  // dangles; estimates must track power iteration at the end.
  DiGraph g(12);
  for (NodeId leaf = 1; leaf < 12; ++leaf) {
    ASSERT_TRUE(g.AddEdge(leaf, 0).ok());
    ASSERT_TRUE(g.AddEdge(0, leaf).ok());
  }
  IncrementalPageRank engine(g, Opts(60, 0.2, 20));
  for (NodeId leaf = 1; leaf < 12; ++leaf) {
    ASSERT_TRUE(engine.RemoveEdge(0, leaf).ok());
  }
  engine.CheckConsistency();
  PowerIterationOptions opts;
  opts.epsilon = 0.2;
  auto exact =
      PageRankPowerIteration(CsrGraph::FromDiGraph(engine.graph()), opts);
  double l1 = 0.0;
  for (NodeId v = 0; v < 12; ++v) {
    l1 += std::abs(engine.NormalizedEstimate(v) - exact.scores[v]);
  }
  EXPECT_LT(l1, 0.1);
}

TEST(SelfLoopTest, WalksHandleSelfLoops) {
  DiGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 0).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 0).ok());
  IncrementalPageRank engine(g, Opts(20, 0.2, 21));
  engine.CheckConsistency();
  // Self-loop keeps mass at 0: it should outrank 1 and 2 isn't obvious,
  // but all estimates are positive and sum to 1.
  double sum = 0.0;
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_GT(engine.NormalizedEstimate(v), 0.0);
    sum += engine.NormalizedEstimate(v);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PowerIterationAgreementTest, PaperVsVisitNormalization) {
  // On a strongly-connected dangling-free graph the paper's nR/eps
  // estimator and the visit normalization agree within sampling noise.
  DiGraph g(20);
  for (const Edge& e : DirectedCycle(20)) {
    ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  }
  for (NodeId v = 0; v < 20; ++v) {
    ASSERT_TRUE(g.AddEdge(v, (v + 5) % 20).ok());
  }
  IncrementalPageRank engine(g, Opts(40, 0.2, 22));
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_NEAR(engine.Estimate(v), engine.NormalizedEstimate(v),
                0.3 * engine.NormalizedEstimate(v) + 0.002);
  }
}


// ---------------------------------------------------------------------
// Pinned random streams. Each estimator runs a fixed churn script behind
// a QueryService at S = 1 and S = 4 and is reduced to two CRC32C
// digests: one over SerializeState() (graph, walk slabs, RNG states,
// counters) and one over what a client reads (the merged snapshot count
// of every node plus the (node, visits) pairs of 32 fixed personalized
// top-10 answers). A refactor of the stores, walkers or engines must
// leave all of them unchanged. A change may update an `answers` constant
// only when it states an intended change to the random streams (for
// example a counter-based RNG). A `state` constant may change for that
// reason or for a stated change of the serialized format (a checkpoint
// version bump) that leaves every `answers` constant as it is; say so
// wherever the change is described.

struct PinnedDigests {
  uint32_t state = 0;
  uint32_t answers = 0;
};

/// Mixed insert/delete windows of 1 to 4096 events over a Chung-Lu graph
/// of 1,000 nodes: inserts come from a held-out pool, deletes pick a
/// uniformly random live edge.
struct PinnedScript {
  DiGraph initial;
  std::vector<std::vector<EdgeEvent>> windows;
};

PinnedScript MakePinnedScript() {
  constexpr std::size_t kNodes = 1000;
  Rng graph_rng(2101);
  ChungLuOptions gen;
  gen.num_nodes = kNodes;
  gen.num_edges = 10500;
  std::vector<Edge> edges = ChungLuDirected(gen, &graph_rng);
  PinnedScript script;
  script.initial = DiGraph(kNodes);
  std::vector<Edge> live(edges.begin(), edges.begin() + 6000);
  std::vector<Edge> pool(edges.begin() + 6000, edges.end());
  for (const Edge& e : live) {
    EXPECT_TRUE(script.initial.AddEdge(e.src, e.dst).ok());
  }
  Rng churn(2102);
  std::size_t next_pool = 0;
  for (std::size_t size :
       {1, 3, 16, 4096, 2, 257, 1024, 1, 64, 2048, 9, 512}) {
    std::vector<EdgeEvent> window;
    for (std::size_t i = 0; i < size; ++i) {
      const bool insert =
          next_pool < pool.size() && (live.empty() || churn.Bernoulli(0.5));
      if (insert) {
        const Edge e = pool[next_pool++];
        live.push_back(e);
        window.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
      } else {
        const std::size_t at = churn.UniformIndex(live.size());
        const Edge e = live[at];
        live[at] = live.back();
        live.pop_back();
        window.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, e});
      }
    }
    script.windows.push_back(std::move(window));
  }
  return script;
}

template <typename Engine>
PinnedDigests RunPinnedScript(const PinnedScript& script,
                              std::size_t shards) {
  MonteCarloOptions mc = Opts(4, 0.2, 2103);
  ShardedEngine<Engine> engine(script.initial, mc,
                               ShardedOptions{shards, 2});
  QueryService<Engine> service(&engine);
  for (const std::vector<EdgeEvent>& window : script.windows) {
    EXPECT_TRUE(service.Ingest(window).ok());
  }
  service.Quiesce();
  PinnedDigests out;
  const std::vector<uint8_t> state = engine.SerializeState();
  out.state = Crc32c(state.data(), state.size());

  ReadScratch read;
  int64_t total = 0;
  const std::vector<int64_t>& counts =
      service.SnapshotCountsInto(&read, &total);
  uint32_t crc =
      ExtendCrc32c(0, counts.data(), counts.size() * sizeof(int64_t));
  crc = ExtendCrc32c(crc, &total, sizeof(total));
  std::vector<ScoredNode> ranked;
  for (uint64_t i = 0; i < 32; ++i) {
    const NodeId seed = static_cast<NodeId>((i * 37 + 11) % 1000);
    EXPECT_TRUE(service
                    .PersonalizedTopK(seed, 10, 2000,
                                      /*exclude_friends=*/true, 7000 + i,
                                      &ranked)
                    .ok());
    for (const ScoredNode& s : ranked) {
      crc = ExtendCrc32c(crc, &s.node, sizeof(s.node));
      crc = ExtendCrc32c(crc, &s.visits, sizeof(s.visits));
    }
  }
  out.answers = crc;
  return out;
}

TEST(PinnedStreamTest, PageRankDigestsMatchRecordedConstants) {
  const PinnedScript script = MakePinnedScript();
  const PinnedDigests s1 = RunPinnedScript<IncrementalPageRank>(script, 1);
  const PinnedDigests s4 = RunPinnedScript<IncrementalPageRank>(script, 4);
  std::printf("pagerank S=1 state %08x answers %08x\n", s1.state,
              s1.answers);
  std::printf("pagerank S=4 state %08x answers %08x\n", s4.state,
              s4.answers);
  EXPECT_EQ(s1.state, 0x89323702u);
  EXPECT_EQ(s1.answers, 0x46dface4u);
  EXPECT_EQ(s4.state, 0x86a9a74au);
  EXPECT_EQ(s4.answers, 0x953ef6ccu);
}

TEST(PinnedStreamTest, SalsaDigestsMatchRecordedConstants) {
  const PinnedScript script = MakePinnedScript();
  const PinnedDigests s1 = RunPinnedScript<IncrementalSalsa>(script, 1);
  const PinnedDigests s4 = RunPinnedScript<IncrementalSalsa>(script, 4);
  std::printf("salsa S=1 state %08x answers %08x\n", s1.state,
              s1.answers);
  std::printf("salsa S=4 state %08x answers %08x\n", s4.state,
              s4.answers);
  EXPECT_EQ(s1.state, 0xc473eacdu);
  EXPECT_EQ(s1.answers, 0xc840fd5bu);
  EXPECT_EQ(s4.state, 0x500c9fe8u);
  EXPECT_EQ(s4.answers, 0xe0ed49c5u);
}

}  // namespace
}  // namespace fastppr
