// End-to-end integration tests: the full pipeline of the paper — evolving
// social graph -> incremental Monte Carlo stores -> personalized stitched
// walks -> top-k recommendations — cross-validated against the exact
// baselines at every stage.

#include <cmath>

#include <gtest/gtest.h>

#include "fastppr/baseline/power_iteration.h"
#include "fastppr/baseline/salsa_exact.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/core/theory.h"
#include "fastppr/graph/csr_graph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/generators.h"

namespace fastppr {
namespace {

MonteCarloOptions Opts(std::size_t R, double eps, uint64_t seed) {
  MonteCarloOptions o;
  o.walks_per_node = R;
  o.epsilon = eps;
  o.seed = seed;
  return o;
}

TEST(IntegrationTest, EvolvingGraphStaysAccurateAtCheckpoints) {
  Rng rng(1);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = 300;
  gen.out_per_node = 6;
  auto edges = PreferentialAttachment(gen, &rng);
  RandomPermutationStream stream(edges, &rng);

  IncrementalPageRank engine(300, Opts(30, 0.2, 2));
  std::size_t applied = 0;
  while (auto ev = stream.Next()) {
    ASSERT_TRUE(engine.ApplyEvent(*ev).ok());
    ++applied;
    if (applied % 600 == 0 || applied == edges.size()) {
      engine.CheckConsistency();
      PowerIterationOptions opts;
      opts.epsilon = 0.2;
      auto exact = PageRankPowerIteration(
          CsrGraph::FromDiGraph(engine.graph()), opts);
      double l1 = 0.0;
      for (NodeId v = 0; v < 300; ++v) {
        l1 += std::abs(engine.NormalizedEstimate(v) - exact.scores[v]);
      }
      EXPECT_LT(l1, 0.15) << "after " << applied << " arrivals";
    }
  }
}

TEST(IntegrationTest, ChurnStreamWithDeletions) {
  Rng rng(3);
  auto edges = ErdosRenyi(100, 800, &rng);
  ChurnStream stream(edges, /*p_delete=*/0.15, /*warmup=*/100, &rng);
  IncrementalPageRank engine(100, Opts(20, 0.2, 4));
  while (auto ev = stream.Next()) {
    ASSERT_TRUE(engine.ApplyEvent(*ev).ok());
  }
  engine.CheckConsistency();
  EXPECT_EQ(engine.num_edges(), 800u);

  PowerIterationOptions opts;
  opts.epsilon = 0.2;
  auto exact =
      PageRankPowerIteration(CsrGraph::FromDiGraph(engine.graph()), opts);
  double l1 = 0.0;
  for (NodeId v = 0; v < 100; ++v) {
    l1 += std::abs(engine.NormalizedEstimate(v) - exact.scores[v]);
  }
  EXPECT_LT(l1, 0.15);
}

TEST(IntegrationTest, PersonalizedWalkOnEvolvedStore) {
  // The same stored segments that maintain the global estimates must
  // serve personalized queries (the core reuse idea of Section 3).
  Rng rng(5);
  auto edges = ErdosRenyi(150, 1500, &rng);
  IncrementalPageRank engine(150, Opts(10, 0.2, 6));
  for (const Edge& e : edges) ASSERT_TRUE(engine.AddEdge(e.src, e.dst).ok());

  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.graph());
  const NodeId seed = 42;
  PersonalizedWalkScratch scratch;
  PersonalizedWalkResult walk;
  ASSERT_TRUE(walker.Walk(seed, 200000, 7, &scratch, &walk).ok());

  PowerIterationOptions opts;
  opts.epsilon = 0.2;
  auto exact = PersonalizedPageRank(CsrGraph::FromDiGraph(engine.graph()),
                                    seed, opts);
  double l1 = 0.0;
  for (NodeId v = 0; v < 150; ++v) {
    const double freq = static_cast<double>(scratch.counts[0][v]) /
                        static_cast<double>(walk.length);
    l1 += std::abs(freq - exact.scores[v]);
  }
  EXPECT_LT(l1, 0.08);
}

TEST(IntegrationTest, SalsaRecommendationsOnEvolvedStore) {
  Rng rng(8);
  TriadicStreamOptions gen;
  gen.num_nodes = 200;
  gen.out_per_node = 8;
  gen.p_triadic = 0.5;
  auto edges = TriadicClosureStream(gen, &rng);
  IncrementalSalsa engine(200, Opts(10, 0.2, 9));
  for (const Edge& e : edges) ASSERT_TRUE(engine.AddEdge(e.src, e.dst).ok());
  engine.CheckConsistency();

  PersonalizedSalsaWalker walker(&engine.walk_store(),
                                 &engine.graph());
  std::vector<ScoredNode> recs;
  ASSERT_TRUE(walker
                  .TopK(50, 10, 50000, /*exclude_friends=*/true, 10, &recs)
                  .ok());
  EXPECT_FALSE(recs.empty());
  // Recommendations correlate with the exact personalized SALSA ranking.
  SalsaOptions opts;
  opts.epsilon = 0.2;
  auto exact = PersonalizedSalsaExact(CsrGraph::FromDiGraph(engine.graph()),
                                      50, opts);
  std::vector<NodeId> exclude{50};
  for (NodeId v : engine.graph().OutNeighbors(50)) exclude.push_back(v);
  auto exact_top = TopKNodes(exact.authority, 10, exclude);
  std::size_t common = 0;
  for (const ScoredNode& r : recs) {
    for (NodeId v : exact_top) {
      if (r.node == v) ++common;
    }
  }
  EXPECT_GE(common, 5u);
}

TEST(IntegrationTest, MeasuredUpdateWorkWithinTheoremFourBound) {
  // Stream a random permutation and check the *measured* total walk-step
  // work against the Theorem 4 bound (with slack for the bound's
  // union-bound pessimism in the early arrivals).
  Rng rng(11);
  auto edges = ErdosRenyi(200, 3000, &rng);
  rng.Shuffle(&edges);
  const std::size_t R = 5;
  const double eps = 0.2;
  IncrementalPageRank engine(200, Opts(R, eps, 12));
  for (const Edge& e : edges) ASSERT_TRUE(engine.AddEdge(e.src, e.dst).ok());

  const double measured =
      static_cast<double>(engine.lifetime_stats().walk_steps);
  const double bound = Theorem4TotalWork(200, R, eps, edges.size());
  EXPECT_LT(measured, 2.0 * bound);
  EXPECT_GT(measured, 0.0);
}

TEST(IntegrationTest, DeletionCostMatchesPropositionFiveScale) {
  Rng rng(13);
  auto edges = ErdosRenyi(150, 2000, &rng);
  IncrementalPageRank engine(150, Opts(10, 0.2, 14));
  for (const Edge& e : edges) ASSERT_TRUE(engine.AddEdge(e.src, e.dst).ok());

  // Delete 200 random live edges, measuring mean walk-step work.
  Rng pick(15);
  auto live = engine.graph().Edges();
  pick.Shuffle(&live);
  double total_steps = 0.0;
  const std::size_t deletions = 200;
  for (std::size_t i = 0; i < deletions; ++i) {
    ASSERT_TRUE(engine.RemoveEdge(live[i].src, live[i].dst).ok());
    total_steps +=
        static_cast<double>(engine.last_event_stats().walk_steps);
  }
  const double mean = total_steps / static_cast<double>(deletions);
  // Proposition 5 bound at m ~ 2000: nR/(m eps^2) = 150*10/(2000*0.04)
  // ~ 18.75. Allow generous slack (m shrinks during the loop).
  const double bound = Proposition5DeletionWork(150, 10, 0.2, 1800);
  EXPECT_LT(mean, 3.0 * bound);
}

TEST(IntegrationTest, DirichletStreamMaintainsAccuracy) {
  Rng rng(16);
  DirichletStream stream(120, 2000, &rng);
  IncrementalPageRank engine(120, Opts(20, 0.2, 17));
  while (auto ev = stream.Next()) {
    ASSERT_TRUE(engine.ApplyEvent(*ev).ok());
  }
  engine.CheckConsistency();
  PowerIterationOptions opts;
  opts.epsilon = 0.2;
  auto exact =
      PageRankPowerIteration(CsrGraph::FromDiGraph(engine.graph()), opts);
  double l1 = 0.0;
  for (NodeId v = 0; v < 120; ++v) {
    l1 += std::abs(engine.NormalizedEstimate(v) - exact.scores[v]);
  }
  EXPECT_LT(l1, 0.15);
}

}  // namespace
}  // namespace fastppr
