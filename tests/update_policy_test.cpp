// Tests for the kRedoFromSource repair policy (the paper's "even more
// simply starting at the corresponding source node" option).

#include <cmath>

#include <gtest/gtest.h>

#include "fastppr/baseline/power_iteration.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/graph/csr_graph.h"
#include "fastppr/graph/generators.h"

namespace fastppr {
namespace {

MonteCarloOptions Opts(std::size_t R, double eps, uint64_t seed,
                       UpdatePolicy policy) {
  MonteCarloOptions o;
  o.walks_per_node = R;
  o.epsilon = eps;
  o.seed = seed;
  o.update_policy = policy;
  return o;
}

TEST(UpdatePolicyTest, RedoFromSourceKeepsInvariants) {
  Rng rng(1);
  auto edges = ErdosRenyi(60, 500, &rng);
  IncrementalPageRank engine(
      60, Opts(10, 0.2, 2, UpdatePolicy::kRedoFromSource));
  for (const Edge& e : edges) ASSERT_TRUE(engine.AddEdge(e.src, e.dst).ok());
  engine.CheckConsistency();
  EXPECT_EQ(engine.walk_store().update_policy(),
            UpdatePolicy::kRedoFromSource);
}

TEST(UpdatePolicyTest, RedoFromSourceAccurateForFewUpdates) {
  // Bootstrapped from a full graph (exact initialization), a handful of
  // redo-from-source repairs keeps the estimates accurate: the per-event
  // bias is small.
  Rng rng(3);
  auto edges = ErdosRenyi(100, 900, &rng);
  DiGraph g(100);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  IncrementalPageRank engine(
      g, Opts(50, 0.2, 4, UpdatePolicy::kRedoFromSource));
  Rng extra(40);
  for (int i = 0; i < 50; ++i) {
    NodeId u = static_cast<NodeId>(extra.UniformIndex(100));
    NodeId v = static_cast<NodeId>(extra.UniformIndex(100));
    if (u == v) v = (v + 1) % 100;
    ASSERT_TRUE(engine.AddEdge(u, v).ok());
  }
  engine.CheckConsistency();

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

TEST(UpdatePolicyTest, RedoDriftsTowardShortSegmentsOnLongStreams) {
  // The documented reproduction finding: redo-from-source re-rolls reset
  // draws, and short outcomes are nearly absorbing, so the stored
  // ensemble drifts toward short walks over long streams. The exact
  // coupling keeps the expected total visit count nR/eps.
  Rng rng(3);
  auto edges = ErdosRenyi(100, 1500, &rng);
  IncrementalPageRank reroute(
      100, Opts(10, 0.2, 4, UpdatePolicy::kRerouteFromVisit));
  IncrementalPageRank redo(
      100, Opts(10, 0.2, 4, UpdatePolicy::kRedoFromSource));
  for (const Edge& e : edges) {
    ASSERT_TRUE(reroute.AddEdge(e.src, e.dst).ok());
    ASSERT_TRUE(redo.AddEdge(e.src, e.dst).ok());
  }
  const double expected_visits = 100.0 * 10.0 / 0.2;
  EXPECT_GT(static_cast<double>(reroute.walk_store().TotalVisits()),
            0.85 * expected_visits);
  EXPECT_LT(static_cast<double>(redo.walk_store().TotalVisits()),
            0.6 * expected_visits);
  redo.CheckConsistency();  // the index stays coherent even while biased
}

TEST(UpdatePolicyTest, RedoFromSourceHandlesDeletions) {
  // Bootstrap exactly, then delete: the invariants hold and the bias from
  // a bounded number of redo repairs stays moderate.
  Rng rng(5);
  auto edges = ErdosRenyi(50, 400, &rng);
  DiGraph g(50);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  IncrementalPageRank engine(
      g, Opts(10, 0.2, 6, UpdatePolicy::kRedoFromSource));
  for (std::size_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(engine.RemoveEdge(edges[i].src, edges[i].dst).ok());
  }
  engine.CheckConsistency();

  PowerIterationOptions opts;
  opts.epsilon = 0.2;
  auto exact =
      PageRankPowerIteration(CsrGraph::FromDiGraph(engine.graph()), opts);
  double l1 = 0.0;
  for (NodeId v = 0; v < 50; ++v) {
    l1 += std::abs(engine.NormalizedEstimate(v) - exact.scores[v]);
  }
  EXPECT_LT(l1, 0.3);
}

TEST(UpdatePolicyTest, RedoTouchesFewerSegmentsAsItDrifts) {
  // A consequence of the drift: shortened segments carry fewer step
  // visits, so later arrivals find fewer candidates to repair.
  Rng rng(7);
  auto edges = ErdosRenyi(80, 1200, &rng);
  IncrementalPageRank reroute(
      80, Opts(10, 0.2, 8, UpdatePolicy::kRerouteFromVisit));
  IncrementalPageRank redo(
      80, Opts(10, 0.2, 8, UpdatePolicy::kRedoFromSource));
  for (const Edge& e : edges) {
    ASSERT_TRUE(reroute.AddEdge(e.src, e.dst).ok());
    ASSERT_TRUE(redo.AddEdge(e.src, e.dst).ok());
  }
  EXPECT_LT(redo.lifetime_stats().segments_updated,
            reroute.lifetime_stats().segments_updated);
}

TEST(UpdatePolicyTest, DanglingResumeUnderRedo) {
  // First out-edge of a node with waiting dangles: under redo policy the
  // dangles are regenerated from their sources.
  DiGraph g(3);
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  ASSERT_TRUE(g.AddEdge(2, 0).ok());
  WalkStore store;
  store.set_update_policy(UpdatePolicy::kRedoFromSource);
  store.Init(g, 100, 0.2, 9);
  const std::size_t dangles = store.DanglingCount(0);
  EXPECT_GT(dangles, 0u);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  Rng rng(10);
  auto stats = store.OnEdgeInserted(g, 0, 1, &rng);
  EXPECT_EQ(stats.segments_updated, dangles);
  EXPECT_EQ(store.DanglingCount(0), 0u);
  store.CheckConsistency(g);
}

// Both estimators' stores under churn, for each repair policy. The
// engine must hand MonteCarloOptions::update_policy to its store: the
// redo-from-source branch serves both with no estimator check.
template <typename Steps>
class PolicyChurnTest : public ::testing::Test {};
using StepPolicies = ::testing::Types<PageRankSteps, SalsaSteps>;
TYPED_TEST_SUITE(PolicyChurnTest, StepPolicies);

TYPED_TEST(PolicyChurnTest, InvariantsUnderChurn) {
  for (const UpdatePolicy policy :
       {UpdatePolicy::kRerouteFromVisit, UpdatePolicy::kRedoFromSource}) {
    SCOPED_TRACE(static_cast<int>(policy));
    Rng rng(11);
    auto edges = ErdosRenyi(40, 250, &rng);
    DiGraph g(40);
    BasicWalkStore<TypeParam> store;
    store.set_update_policy(policy);
    store.Init(g, 5, 0.25, 12);
    Rng update_rng(13);
    std::vector<Edge> live;
    for (const Edge& e : edges) {
      ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
      store.OnEdgeInserted(g, e.src, e.dst, &update_rng);
      live.push_back(e);
      if (live.size() > 30 && update_rng.Bernoulli(0.3)) {
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
}

TYPED_TEST(PolicyChurnTest, EngineHandsPolicyToItsStore) {
  const BasicIncrementalEngine<TypeParam> engine(
      20, Opts(3, 0.2, 14, UpdatePolicy::kRedoFromSource));
  EXPECT_EQ(engine.walk_store().update_policy(),
            UpdatePolicy::kRedoFromSource);
}

TEST(TheoryTopKTest, TheoryLengthTopKWorks) {
  Rng rng(15);
  auto edges = ErdosRenyi(200, 2000, &rng);
  DiGraph g(200);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  MonteCarloOptions mc;
  mc.walks_per_node = 10;
  mc.epsilon = 0.2;
  IncrementalPageRank engine(g, mc);
  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.graph());
  std::vector<ScoredNode> ranked;
  PersonalizedWalkResult stats;
  ASSERT_TRUE(walker
                  .TopKWithTheoryLength(5, 10, /*alpha=*/0.75, /*c=*/5.0,
                                        true, 16, &ranked, &stats)
                  .ok());
  EXPECT_FALSE(ranked.empty());
  // Equation (4) with k=10, n=200, alpha=0.75, c=5:
  // s = 20 * 10 * 20^{0.25} ~ 423.
  EXPECT_NEAR(static_cast<double>(stats.length), 423.0, 30.0);
}

TEST(TheoryTopKTest, RejectsBadParameters) {
  DiGraph graph(5);
  WalkStore store;
  DiGraph g(5);
  store.Init(g, 1, 0.2, 17);
  PersonalizedPageRankWalker walker(&store, &graph);
  std::vector<ScoredNode> ranked;
  EXPECT_TRUE(walker.TopKWithTheoryLength(0, 10, 1.5, 5.0, true, 1, &ranked)
                  .IsInvalidArgument());
  EXPECT_TRUE(walker.TopKWithTheoryLength(0, 0, 0.75, 5.0, true, 1, &ranked)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace fastppr
