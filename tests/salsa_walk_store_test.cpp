#include "fastppr/store/walk_store.h"

#include <cmath>

#include <gtest/gtest.h>

#include "fastppr/baseline/salsa_exact.h"
#include "fastppr/graph/csr_graph.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/random.h"

namespace fastppr {
namespace {

DiGraph BuildGraph(std::size_t n, const std::vector<Edge>& edges) {
  DiGraph g(n);
  for (const Edge& e : edges) EXPECT_TRUE(g.AddEdge(e.src, e.dst).ok());
  return g;
}

TEST(SalsaWalkStoreTest, InitInvariants) {
  Rng rng(1);
  auto edges = ErdosRenyi(30, 200, &rng);
  DiGraph g = BuildGraph(30, edges);
  SalsaWalkStore store;
  store.Init(g, 5, 0.2, 3);
  EXPECT_EQ(store.num_segments(), 30u * 10u);  // 2R per node
  store.CheckConsistency(g);
}

TEST(SalsaWalkStoreTest, MeanSegmentLengthIsTwoOverEps) {
  // Resets only before forward steps: mean node count per segment is 2/eps
  // (each forward step survives with prob 1-eps and brings a backward step
  // along). Use a complete digraph so no direction ever dangles.
  auto edges = CompleteDigraph(12);
  DiGraph g = BuildGraph(12, edges);
  SalsaWalkStore store;
  const double eps = 0.25;
  store.Init(g, 50, eps, 5);
  double total_len = 0.0;
  std::size_t segs = 0;
  for (NodeId u = 0; u < 12; ++u) {
    for (std::size_t k = 0; k < 100; ++k) {
      total_len += static_cast<double>(store.GetSegment(u, k).size());
      ++segs;
    }
  }
  // Forward-start: nodes = 2*Geom-ish; expected value 2/eps per paper.
  // Backward-start walks have an extra unconditioned backward step.
  EXPECT_NEAR(total_len / static_cast<double>(segs), 2.0 / eps,
              2.0 / eps * 0.15);
}

TEST(SalsaWalkStoreTest, SidesAlternate) {
  auto edges = CompleteDigraph(6);
  DiGraph g = BuildGraph(6, edges);
  SalsaWalkStore store;
  store.Init(g, 2, 0.3, 7);
  // Hub-start (side 0) segment of node 0 (k=0) and authority-start
  // (side 1) segment (k=2); node 1's segments follow at ids 4..7.
  EXPECT_EQ(store.SideOf(0, 0), 0u);
  EXPECT_EQ(store.SideOf(0, 1), 1u);
  EXPECT_EQ(store.SideOf(0, 2), 0u);
  EXPECT_EQ(store.SideOf(2, 0), 1u);
  EXPECT_EQ(store.SideOf(2, 1), 0u);
  EXPECT_EQ(store.SideOf(5, 0), 0u);
  EXPECT_EQ(store.SideOf(7, 0), 1u);
}

TEST(SalsaWalkStoreTest, GlobalAuthorityTracksIndegreeAtSmallEps) {
  // Section 2.3: as the reset probability goes to 0, the global SALSA
  // authority score of a node is its indegree / m.
  Rng rng(11);
  auto edges = ErdosRenyi(40, 400, &rng);
  DiGraph g = BuildGraph(40, edges);
  SalsaWalkStore store;
  store.Init(g, 60, 0.02, 13);
  const double m = static_cast<double>(g.num_edges());
  double l1 = 0.0;
  for (NodeId v = 0; v < 40; ++v) {
    l1 += std::abs(store.NormalizedEstimate(v, 1) -
                   static_cast<double>(g.InDegree(v)) / m);
  }
  EXPECT_LT(l1, 0.15);
}

TEST(SalsaWalkStoreTest, MatchesExactChainOnStaticGraph) {
  Rng rng(17);
  auto edges = ErdosRenyi(50, 350, &rng);
  DiGraph g = BuildGraph(50, edges);
  SalsaWalkStore store;
  store.Init(g, 80, 0.2, 19);

  SalsaOptions opts;
  opts.epsilon = 0.2;
  auto exact = SalsaExact(CsrGraph::FromDiGraph(g), opts);
  double l1_auth = 0.0, l1_hub = 0.0;
  for (NodeId v = 0; v < 50; ++v) {
    l1_auth += std::abs(store.NormalizedEstimate(v, 1) - exact.authority[v]);
    l1_hub += std::abs(store.NormalizedEstimate(v, 0) - exact.hub[v]);
  }
  EXPECT_LT(l1_auth, 0.12);
  EXPECT_LT(l1_hub, 0.12);
}

TEST(SalsaWalkStoreTest, IncrementalMatchesExactAfterStream) {
  Rng rng(23);
  auto edges = ErdosRenyi(40, 300, &rng);
  DiGraph g(40);
  SalsaWalkStore store;
  store.Init(g, 60, 0.2, 29);
  Rng update_rng(31);
  for (const Edge& e : edges) {
    ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
    store.OnEdgeInserted(g, e.src, e.dst, &update_rng);
  }
  store.CheckConsistency(g);

  SalsaOptions opts;
  opts.epsilon = 0.2;
  auto exact = SalsaExact(CsrGraph::FromDiGraph(g), opts);
  double l1_auth = 0.0;
  for (NodeId v = 0; v < 40; ++v) {
    l1_auth += std::abs(store.NormalizedEstimate(v, 1) - exact.authority[v]);
  }
  EXPECT_LT(l1_auth, 0.15);
}

TEST(SalsaWalkStoreTest, BothEndpointsCanTriggerUpdates) {
  // A long path graph: the new edge's source-side (forward) and
  // target-side (backward) visits both reroute.
  DiGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.AddEdge(3, 0).ok());
  SalsaWalkStore store;
  store.Init(g, 200, 0.2, 37);
  Rng rng(41);
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  // Node 0 now has outdeg 2; node 2 has indeg 2: forward visits at 0 and
  // backward visits at 2 should both contribute switches.
  auto stats = store.OnEdgeInserted(g, 0, 2, &rng);
  EXPECT_GT(stats.segments_updated, 0u);
  store.CheckConsistency(g);
}

TEST(SalsaWalkStoreTest, FirstInEdgeResumesBackwardDangles) {
  // Node 2 has an out-edge but no in-edge: backward-start segments at 2
  // (and backward steps reaching it) dangle until an in-edge arrives.
  DiGraph g2(3);
  ASSERT_TRUE(g2.AddEdge(2, 0).ok());
  ASSERT_TRUE(g2.AddEdge(0, 1).ok());
  ASSERT_TRUE(g2.AddEdge(1, 0).ok());
  SalsaWalkStore store;
  store.Init(g2, 100, 0.2, 43);
  store.CheckConsistency(g2);

  ASSERT_TRUE(g2.AddEdge(1, 2).ok());
  Rng rng(47);
  auto stats = store.OnEdgeInserted(g2, 1, 2, &rng);
  // All backward-dangles at 2 resumed (at least the R backward-start
  // segments of node 2 itself).
  EXPECT_GE(stats.segments_updated, 1u);
  store.CheckConsistency(g2);
}

TEST(SalsaWalkStoreTest, RemovalKeepsInvariantsAndDistribution) {
  Rng rng(53);
  auto edges = ErdosRenyi(30, 250, &rng);
  DiGraph g = BuildGraph(30, edges);
  SalsaWalkStore store;
  store.Init(g, 40, 0.2, 59);
  Rng update_rng(61);

  ASSERT_TRUE(g.AddEdge(5, 25).ok());
  store.OnEdgeInserted(g, 5, 25, &update_rng);
  ASSERT_TRUE(g.RemoveEdge(5, 25).ok());
  store.OnEdgeRemoved(g, 5, 25, &update_rng);
  store.CheckConsistency(g);

  SalsaOptions opts;
  opts.epsilon = 0.2;
  auto exact = SalsaExact(CsrGraph::FromDiGraph(g), opts);
  double l1 = 0.0;
  for (NodeId v = 0; v < 30; ++v) {
    l1 += std::abs(store.NormalizedEstimate(v, 1) - exact.authority[v]);
  }
  EXPECT_LT(l1, 0.2);
}

class SalsaStoreParamTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SalsaStoreParamTest, ChurnPreservesInvariants) {
  const int R = std::get<0>(GetParam());
  const double eps = std::get<1>(GetParam());
  Rng rng(67);
  auto edges = ErdosRenyi(25, 150, &rng);
  DiGraph g(25);
  SalsaWalkStore store;
  store.Init(g, R, eps, 71);
  Rng update_rng(73);

  std::vector<Edge> live;
  for (const Edge& e : edges) {
    ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
    store.OnEdgeInserted(g, e.src, e.dst, &update_rng);
    live.push_back(e);
    if (live.size() > 20 && update_rng.Bernoulli(0.25)) {
      std::size_t i = update_rng.UniformIndex(live.size());
      Edge victim = live[i];
      live[i] = live.back();
      live.pop_back();
      ASSERT_TRUE(g.RemoveEdge(victim.src, victim.dst).ok());
      store.OnEdgeRemoved(g, victim.src, victim.dst, &update_rng);
    }
  }
  store.CheckConsistency(g);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SalsaStoreParamTest,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::Values(0.1, 0.2, 0.4)));

}  // namespace
}  // namespace fastppr
