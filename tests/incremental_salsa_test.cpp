#include "fastppr/core/incremental_pagerank.h"

#include <cmath>

#include <gtest/gtest.h>

#include "fastppr/baseline/salsa_exact.h"
#include "fastppr/graph/csr_graph.h"
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

TEST(IncrementalSalsaTest, StreamMatchesExactChain) {
  Rng rng(1);
  auto edges = ErdosRenyi(50, 400, &rng);
  IncrementalSalsa engine(50, Opts(40, 0.2, 2));
  for (const Edge& e : edges) ASSERT_TRUE(engine.AddEdge(e.src, e.dst).ok());
  engine.CheckConsistency();

  SalsaOptions opts;
  opts.epsilon = 0.2;
  auto exact = SalsaExact(CsrGraph::FromDiGraph(engine.graph()), opts);
  double l1 = 0.0;
  for (NodeId v = 0; v < 50; ++v) {
    l1 += std::abs(engine.NormalizedEstimate(v) - exact.authority[v]);
  }
  EXPECT_LT(l1, 0.15);
}

TEST(IncrementalSalsaTest, AuthorityTracksIndegree) {
  IncrementalSalsa engine(6, Opts(50, 0.05, 3));
  // Node 5 collects many in-edges.
  for (NodeId v = 0; v < 5; ++v) {
    ASSERT_TRUE(engine.AddEdge(v, 5).ok());
    ASSERT_TRUE(engine.AddEdge(5, v).ok());
  }
  auto top = engine.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], 5u);
}

TEST(IncrementalSalsaTest, BootstrapMatchesStreamed) {
  Rng rng(5);
  auto edges = ErdosRenyi(40, 250, &rng);
  DiGraph g(40);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  IncrementalSalsa boot(g, Opts(30, 0.2, 6));
  IncrementalSalsa streamed(40, Opts(30, 0.2, 7));
  for (const Edge& e : edges) {
    ASSERT_TRUE(streamed.AddEdge(e.src, e.dst).ok());
  }
  double l1 = 0.0;
  for (NodeId v = 0; v < 40; ++v) {
    l1 += std::abs(boot.NormalizedEstimate(v) -
                   streamed.NormalizedEstimate(v));
  }
  EXPECT_LT(l1, 0.2);
}

TEST(IncrementalSalsaTest, RemovalKeepsConsistency) {
  Rng rng(9);
  auto edges = ErdosRenyi(30, 200, &rng);
  IncrementalSalsa engine(30, Opts(10, 0.2, 10));
  for (const Edge& e : edges) ASSERT_TRUE(engine.AddEdge(e.src, e.dst).ok());
  for (std::size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.RemoveEdge(edges[i].src, edges[i].dst).ok());
  }
  engine.CheckConsistency();
  EXPECT_EQ(engine.num_edges(), 150u);
}

TEST(IncrementalSalsaTest, ErrorStatusesPropagate) {
  IncrementalSalsa engine(3, Opts(2, 0.2, 11));
  EXPECT_TRUE(engine.AddEdge(0, 7).IsInvalidArgument());
  EXPECT_TRUE(engine.RemoveEdge(0, 1).IsNotFound());
}

TEST(IncrementalSalsaTest, UpdateWorkDecaysOverStream) {
  Rng rng(13);
  auto edges = ErdosRenyi(60, 1200, &rng);
  Rng shuffle_rng(14);
  shuffle_rng.Shuffle(&edges);
  IncrementalSalsa engine(60, Opts(5, 0.2, 15));
  double early = 0.0, late = 0.0;
  for (std::size_t t = 0; t < edges.size(); ++t) {
    ASSERT_TRUE(engine.AddEdge(edges[t].src, edges[t].dst).ok());
    const double m =
        static_cast<double>(engine.last_event_stats().segments_updated);
    if (t < 300) {
      early += m;
    } else if (t >= 900) {
      late += m;
    }
  }
  EXPECT_GT(early, 1.5 * late);
}

}  // namespace
}  // namespace fastppr
