#include "fastppr/core/ppr_walker.h"

#include <cmath>

#include <gtest/gtest.h>

#include "fastppr/baseline/power_iteration.h"
#include "fastppr/core/theory.h"
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
  WalkStore store;
};

TEST(PprWalkerTest, WalkReachesRequestedLength) {
  Fixture f(50, 400, 5, 0.2, 1);
  PersonalizedPageRankWalker walker(&f.store, &f.graph);
  PersonalizedWalkScratch scratch;
  PersonalizedWalkResult result;
  ASSERT_TRUE(walker.Walk(3, 5000, 2, &scratch, &result).ok());
  EXPECT_GE(result.length, 5000u);
  // Total visits recorded equals the length.
  int64_t total = 0;
  for (NodeId v : scratch.visited[0]) total += scratch.counts[0][v];
  EXPECT_EQ(static_cast<uint64_t>(total), result.length);
  EXPECT_GE(result.fetches, 1u);
  EXPECT_GT(result.resets, 0u);
}

TEST(PprWalkerTest, InvalidSeedRejected) {
  Fixture f(10, 50, 3, 0.2, 3);
  PersonalizedPageRankWalker walker(&f.store, &f.graph);
  PersonalizedWalkScratch scratch;
  PersonalizedWalkResult result;
  EXPECT_TRUE(
      walker.Walk(99, 100, 4, &scratch, &result).IsInvalidArgument());
}

TEST(PprWalkerTest, VisitDistributionMatchesExactPersonalizedPageRank) {
  Fixture f(40, 300, 10, 0.2, 5);
  PersonalizedPageRankWalker walker(&f.store, &f.graph);
  PersonalizedWalkScratch scratch;
  PersonalizedWalkResult result;
  const NodeId seed = 7;
  ASSERT_TRUE(walker.Walk(seed, 400000, 6, &scratch, &result).ok());

  PowerIterationOptions opts;
  opts.epsilon = 0.2;
  auto exact =
      PersonalizedPageRank(CsrGraph::FromDiGraph(f.graph), seed,
                           opts);
  double l1 = 0.0;
  for (NodeId v = 0; v < 40; ++v) {
    const double freq = static_cast<double>(scratch.counts[0][v]) /
                        static_cast<double>(result.length);
    l1 += std::abs(freq - exact.scores[v]);
  }
  EXPECT_LT(l1, 0.05);
}

TEST(PprWalkerTest, FetchBudgetExhaustionReported) {
  Fixture f(60, 500, 2, 0.2, 7);
  WalkerOptions opts;
  opts.max_fetches = 3;
  PersonalizedPageRankWalker walker(&f.store, &f.graph, opts);
  PersonalizedWalkScratch scratch;
  PersonalizedWalkResult result;
  Status s = walker.Walk(0, 100000, 8, &scratch, &result);
  EXPECT_TRUE(s.IsResourceExhausted());
}

TEST(PprWalkerTest, OneEdgeFetchModeCostsMoreFetches) {
  Fixture f(50, 400, 3, 0.2, 9);
  PersonalizedPageRankWalker all_mode(&f.store, &f.graph);
  WalkerOptions one_opts;
  one_opts.fetch_mode = FetchMode::kSegmentsAndOneEdge;
  PersonalizedPageRankWalker one_mode(&f.store, &f.graph, one_opts);

  PersonalizedWalkScratch scratch;
  PersonalizedWalkResult all_result, one_result;
  ASSERT_TRUE(all_mode.Walk(1, 20000, 10, &scratch, &all_result).ok());
  ASSERT_TRUE(one_mode.Walk(1, 20000, 10, &scratch, &one_result).ok());
  EXPECT_GE(one_result.fetches, all_result.fetches);
  // Remark 1: one-edge mode pays one fetch per manual step on top of the
  // per-node fetches.
  EXPECT_EQ(one_result.fetches,
            one_result.manual_steps + all_result.fetches);
}

TEST(PprWalkerTest, TopKExcludesSeedAndFriends) {
  Fixture f(30, 250, 5, 0.2, 11);
  PersonalizedPageRankWalker walker(&f.store, &f.graph);
  std::vector<ScoredNode> ranked;
  const NodeId seed = 4;
  ASSERT_TRUE(walker.TopK(seed, 10, 20000, /*exclude_friends=*/true, 12,
                          &ranked)
                  .ok());
  EXPECT_LE(ranked.size(), 10u);
  for (const ScoredNode& s : ranked) {
    EXPECT_NE(s.node, seed);
    for (NodeId friend_node : f.graph.OutNeighbors(seed)) {
      EXPECT_NE(s.node, friend_node);
    }
  }
  // Ranked by visits, descending.
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].visits, ranked[i].visits);
  }
}

TEST(PprWalkerTest, TopKIncludesFriendsWhenNotExcluded) {
  // A tight cycle seeded at 0: node 1 (the only out-neighbour) dominates
  // the personalized scores and must appear when friends are allowed.
  DiGraph graph(5);
  for (const Edge& e : DirectedCycle(5)) {
    ASSERT_TRUE(graph.AddEdge(e.src, e.dst).ok());
  }
  WalkStore store;
  store.Init(graph, 5, 0.2, 13);
  PersonalizedPageRankWalker walker(&store, &graph);
  std::vector<ScoredNode> ranked;
  ASSERT_TRUE(
      walker.TopK(0, 2, 20000, /*exclude_friends=*/false, 14, &ranked).ok());
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].node, 1u);
}

TEST(PprWalkerTest, FetchCountGrowsSublinearlyInWalkLength) {
  // Theorem 8: fetches grow like s^{1/alpha} / (nR)^{...}, far below s
  // for short-to-moderate walks; sanity-check the qualitative shape.
  Fixture f(2000, 30000, 10, 0.2, 15);
  PersonalizedPageRankWalker walker(&f.store, &f.graph);
  PersonalizedWalkScratch scratch;
  PersonalizedWalkResult short_walk, long_walk;
  ASSERT_TRUE(walker.Walk(0, 1000, 16, &scratch, &short_walk).ok());
  ASSERT_TRUE(walker.Walk(0, 10000, 16, &scratch, &long_walk).ok());
  EXPECT_LT(long_walk.fetches, long_walk.length);
  EXPECT_GE(long_walk.fetches, short_walk.fetches);
}

TEST(PprWalkerTest, DanglingSeedStillWalks) {
  // The seed has no out-edges: every session resets immediately and the
  // walk is all seed visits.
  DiGraph graph(3);
  ASSERT_TRUE(graph.AddEdge(1, 0).ok());
  WalkStore store;
  store.Init(graph, 2, 0.2, 17);
  PersonalizedPageRankWalker walker(&store, &graph);
  PersonalizedWalkScratch scratch;
  PersonalizedWalkResult result;
  ASSERT_TRUE(walker.Walk(0, 100, 18, &scratch, &result).ok());
  EXPECT_GE(result.length, 100u);
  ASSERT_EQ(scratch.visited[0].size(), 1u);
  EXPECT_EQ(scratch.counts[0][0], static_cast<int64_t>(result.length));
}

TEST(RankVisitsTest, StableOrderingAndScores) {
  // Touched in an order that differs from the ranking, with an excluded
  // node that would otherwise rank first.
  const std::vector<int64_t> counts{0, 5, 5, 9, 12};
  const std::vector<NodeId> touched{2, 4, 1, 3};
  const std::vector<uint8_t> excluded{0, 0, 0, 0, 1};
  std::vector<ScoredNode> tmp;
  std::vector<ScoredNode> ranked;
  RankVisitsDenseInto(counts, touched, excluded, 3, 19, &tmp, &ranked);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].node, 3u);
  EXPECT_EQ(ranked[1].node, 1u);  // tie broken by id
  EXPECT_EQ(ranked[2].node, 2u);
  EXPECT_NEAR(ranked[0].score, 9.0 / 19.0, 1e-12);
}

}  // namespace
}  // namespace fastppr
