#include "fastppr/core/ppr_walker.h"

#include <cmath>

#include <gtest/gtest.h>

#include "fastppr/baseline/salsa_exact.h"
#include "fastppr/graph/csr_graph.h"
#include "fastppr/graph/generators.h"

namespace fastppr {
namespace {

struct Fixture {
  explicit Fixture(std::size_t n, std::size_t m, std::size_t R, double eps,
                   uint64_t seed)
      : graph(n) {
    Rng rng(seed);
    auto edges = ErdosRenyi(n, m, &rng);
    for (const Edge& e : edges) {
      EXPECT_TRUE(graph.AddEdge(e.src, e.dst).ok());
    }
    store.Init(graph, R, eps, seed + 1);
  }
  DiGraph graph;
  SalsaWalkStore store;
};

TEST(SalsaWalkerTest, WalkReachesLengthAndCountsSplitBySide) {
  Fixture f(40, 300, 5, 0.2, 1);
  PersonalizedSalsaWalker walker(&f.store, &f.graph);
  BasicWalkScratch<SalsaSteps> scratch;
  PersonalizedWalkResult result;
  ASSERT_TRUE(walker.Walk(2, 8000, 2, &scratch, &result).ok());
  EXPECT_GE(result.length, 8000u);
  int64_t hub_total = 0, auth_total = 0;
  for (NodeId v : scratch.visited[0]) hub_total += scratch.counts[0][v];
  for (NodeId v : scratch.visited[1]) {
    auth_total += scratch.counts[1][v];
  }
  EXPECT_EQ(static_cast<uint64_t>(hub_total + auth_total), result.length);
  // Alternating walk: the two sides are roughly balanced.
  EXPECT_NEAR(static_cast<double>(hub_total) /
                  static_cast<double>(result.length),
              0.5, 0.15);
}

TEST(SalsaWalkerTest, MatchesExactPersonalizedSalsa) {
  Fixture f(30, 250, 10, 0.2, 3);
  PersonalizedSalsaWalker walker(&f.store, &f.graph);
  BasicWalkScratch<SalsaSteps> scratch;
  PersonalizedWalkResult result;
  const NodeId seed = 5;
  ASSERT_TRUE(walker.Walk(seed, 400000, 4, &scratch, &result).ok());

  SalsaOptions opts;
  opts.epsilon = 0.2;
  auto exact = PersonalizedSalsaExact(
      CsrGraph::FromDiGraph(f.graph), seed, opts);
  int64_t auth_total = 0;
  for (NodeId v : scratch.visited[1]) {
    auth_total += scratch.counts[1][v];
  }
  double l1 = 0.0;
  for (NodeId v = 0; v < 30; ++v) {
    const double freq =
        auth_total == 0 ? 0.0
                        : static_cast<double>(scratch.counts[1][v]) /
                              static_cast<double>(auth_total);
    l1 += std::abs(freq - exact.authority[v]);
  }
  EXPECT_LT(l1, 0.06);
}

TEST(SalsaWalkerTest, TopKExcludesFriends) {
  Fixture f(30, 250, 5, 0.2, 5);
  PersonalizedSalsaWalker walker(&f.store, &f.graph);
  std::vector<ScoredNode> ranked;
  const NodeId seed = 9;
  ASSERT_TRUE(walker
                  .TopK(seed, 8, 20000, /*exclude_friends=*/true, 6,
                        &ranked)
                  .ok());
  for (const ScoredNode& s : ranked) {
    EXPECT_NE(s.node, seed);
    for (NodeId fr : f.graph.OutNeighbors(seed)) {
      EXPECT_NE(s.node, fr);
    }
  }
}

TEST(SalsaWalkerTest, FetchBudgetRespected) {
  Fixture f(50, 400, 2, 0.2, 7);
  WalkerOptions opts;
  opts.max_fetches = 2;
  PersonalizedSalsaWalker walker(&f.store, &f.graph, opts);
  BasicWalkScratch<SalsaSteps> scratch;
  PersonalizedWalkResult result;
  EXPECT_TRUE(
      walker.Walk(0, 100000, 8, &scratch, &result).IsResourceExhausted());
}

TEST(SalsaWalkerTest, InvalidSeed) {
  Fixture f(10, 60, 2, 0.2, 9);
  PersonalizedSalsaWalker walker(&f.store, &f.graph);
  BasicWalkScratch<SalsaSteps> scratch;
  PersonalizedWalkResult result;
  EXPECT_TRUE(
      walker.Walk(50, 100, 10, &scratch, &result).IsInvalidArgument());
}

TEST(SalsaWalkerTest, IsolatedSeedProducesSeedOnlyWalk) {
  DiGraph graph(4);
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  SalsaWalkStore store;
  store.Init(graph, 3, 0.2, 11);
  PersonalizedSalsaWalker walker(&store, &graph);
  BasicWalkScratch<SalsaSteps> scratch;
  PersonalizedWalkResult result;
  ASSERT_TRUE(walker.Walk(0, 50, 12, &scratch, &result).ok());
  ASSERT_EQ(scratch.visited[0].size(), 1u);
  EXPECT_EQ(scratch.counts[0][0], static_cast<int64_t>(result.length));
  EXPECT_TRUE(scratch.visited[1].empty());
}

TEST(SalsaWalkerTest, OneEdgeModeNeverCheaper) {
  Fixture f(40, 350, 3, 0.2, 13);
  PersonalizedSalsaWalker all_mode(&f.store, &f.graph);
  WalkerOptions one_opts;
  one_opts.fetch_mode = FetchMode::kSegmentsAndOneEdge;
  PersonalizedSalsaWalker one_mode(&f.store, &f.graph, one_opts);
  BasicWalkScratch<SalsaSteps> scratch;
  PersonalizedWalkResult a, b;
  ASSERT_TRUE(all_mode.Walk(1, 15000, 14, &scratch, &a).ok());
  ASSERT_TRUE(one_mode.Walk(1, 15000, 14, &scratch, &b).ok());
  EXPECT_GE(b.fetches, a.fetches);
}

}  // namespace
}  // namespace fastppr
