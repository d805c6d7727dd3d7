// Quickstart: maintain PageRank estimates over a live edge stream and run
// a personalized query — the two capabilities of the paper in ~60 lines.
//
//   build/examples/quickstart

#include <cstdio>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/random.h"

using namespace fastppr;

int main() {
  // 1. A synthetic follow graph: 2,000 users, preferential attachment.
  Rng rng(42);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = 2000;
  gen.out_per_node = 8;
  std::vector<Edge> follows = PreferentialAttachment(gen, &rng);

  // 2. An incremental PageRank engine: R = 10 stored walk segments per
  //    user, reset probability eps = 0.2 (the paper's setting).
  MonteCarloOptions options;
  options.walks_per_node = 10;
  options.epsilon = 0.2;
  IncrementalPageRank engine(gen.num_nodes, options);

  // 3. Stream the follows; the engine repairs its walk segments as edges
  //    arrive (Theorem 4: total work O(nR ln m / eps^2)).
  for (const Edge& e : follows) {
    Status s = engine.AddEdge(e.src, e.dst);
    if (!s.ok()) {
      std::fprintf(stderr, "AddEdge failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("streamed %zu edges; total update work: %llu walk steps, "
              "%llu segments rerouted\n",
              follows.size(),
              static_cast<unsigned long long>(
                  engine.lifetime_stats().walk_steps),
              static_cast<unsigned long long>(
                  engine.lifetime_stats().segments_updated));

  // 4. Global ranking, available at all times with no recomputation.
  std::printf("\ntop-5 users by PageRank estimate:\n");
  for (NodeId v : engine.TopK(5)) {
    std::printf("  user %-6u  pi~ = %.6f\n", v, engine.Estimate(v));
  }

  // 5. A personalized query over the *same* stored segments (Section 3):
  //    who matters most from user 1000's point of view?
  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.graph());
  std::vector<ScoredNode> recs;
  PersonalizedWalkResult stats;
  Status s = walker.TopK(/*seed=*/1000, /*k=*/5, /*length=*/20000,
                         /*exclude_friends=*/true, /*rng_seed=*/7, &recs,
                         &stats);
  if (!s.ok()) {
    std::fprintf(stderr, "TopK failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\ntop-5 personalized for user 1000 "
              "(%llu-step walk, %llu fetches):\n",
              static_cast<unsigned long long>(stats.length),
              static_cast<unsigned long long>(stats.fetches));
  for (const ScoredNode& r : recs) {
    std::printf("  user %-6u  score = %.5f\n", r.node, r.score);
  }
  return 0;
}
