// Trending authorities: incremental SALSA over a bursty follow stream.
// A small set of "breakout" accounts suddenly starts attracting follows
// mid-stream; the dashboard shows their authority estimates climbing the
// global ranking in real time — without ever recomputing from scratch.
//
//   build/examples/trending_authorities

#include <algorithm>
#include <cstdio>
#include <vector>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/random.h"

using namespace fastppr;

namespace {

std::size_t RankOf(const IncrementalSalsa& engine, NodeId target) {
  const double score = engine.NormalizedEstimate(target);
  std::size_t better = 0;
  for (NodeId v = 0; v < engine.num_nodes(); ++v) {
    if (engine.NormalizedEstimate(v) > score) ++better;
  }
  return better + 1;
}

}  // namespace

int main() {
  const std::size_t n = 5000;
  Rng rng(23);

  MonteCarloOptions options;
  options.walks_per_node = 8;
  options.epsilon = 0.2;
  IncrementalSalsa engine(n, options);

  // Phase 1: organic growth.
  PreferentialAttachmentOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = 8;
  for (const Edge& e : PreferentialAttachment(gen, &rng)) {
    if (!engine.AddEdge(e.src, e.dst).ok()) return 1;
  }

  // Three obscure accounts go viral.
  const std::vector<NodeId> breakout{4800, 4900, 4990};
  std::printf("before the burst:\n");
  for (NodeId b : breakout) {
    std::printf("  account %u: authority rank %zu (indeg %zu)\n", b,
                RankOf(engine, b), engine.graph().InDegree(b));
  }

  // Phase 2: burst — random users follow the breakout accounts.
  const std::size_t burst_follows = 3000;
  for (std::size_t i = 0; i < burst_follows; ++i) {
    NodeId fan = static_cast<NodeId>(rng.UniformIndex(n));
    NodeId star = breakout[rng.UniformIndex(breakout.size())];
    if (fan == star) continue;
    if (!engine.AddEdge(fan, star).ok()) return 1;
    if ((i + 1) % 1000 == 0) {
      std::printf("\nafter %zu burst follows:\n", i + 1);
      for (NodeId b : breakout) {
        std::printf("  account %u: authority rank %zu (indeg %zu)\n", b,
                    RankOf(engine, b), engine.graph().InDegree(b));
      }
      std::printf("  update cost so far: %llu walk steps total\n",
                  static_cast<unsigned long long>(
                      engine.lifetime_stats().walk_steps));
    }
  }

  std::printf("\nglobal top-10 authorities after the burst:");
  for (NodeId v : engine.TopK(10)) std::printf(" %u", v);
  std::printf("\n(breakout accounts should now be near the top)\n");
  return 0;
}
