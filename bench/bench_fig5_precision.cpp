// Figure 5: "a few random steps go a long way". For each of 100 users,
// a 50,000-step personalized walk defines the "true" top-100; a 5,000-step
// walk retrieves the top-1000; the 11-point interpolated average precision
// curve shows short walks suffice (paper: precision ~0.8 at recall 0.8,
// ~0.9 at recall 0.7). Direct friends are excluded, as in the paper.

#include <cstdio>

#include "bench_common.h"
#include "fastppr/analysis/precision.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/table_printer.h"

using namespace fastppr;
using namespace fastppr::bench;

int main() {
  Banner("11-point interpolated average precision of short walks",
         "Figure 5 of Bahmani et al., VLDB 2010");

  // Triadic-closure stream: real follow graphs are locally clustered, so
  // personalized mass concentrates near the seed — the regime in which
  // the paper's short walks identify the true top-k.
  const std::size_t n = 50000;
  Rng rng(5);
  TriadicStreamOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = 8;
  gen.p_triadic = 0.85;
  gen.attractiveness = 0.5;
  gen.p_reciprocal = 0.5;
  auto edges = TriadicClosureStream(gen, &rng);

  MonteCarloOptions mc;
  mc.walks_per_node = 10;
  mc.epsilon = 0.2;
  mc.seed = 55;
  DiGraph dg(n);
  for (const Edge& e : edges) {
    if (!dg.AddEdge(e.src, e.dst).ok()) return 1;
  }
  IncrementalPageRank engine(dg, mc);
  std::printf("graph: n=%zu m=%zu; R=%zu eps=%.2f\n\n", n,
              engine.num_edges(), mc.walks_per_node, mc.epsilon);

  std::vector<NodeId> users;
  while (users.size() < 100) {
    NodeId u = static_cast<NodeId>(rng.UniformIndex(n));
    const std::size_t f = engine.graph().OutDegree(u);
    if (f >= 10 && f <= 30) users.push_back(u);
  }

  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.graph());
  std::vector<PrecisionCurve> curves;
  for (std::size_t i = 0; i < users.size(); ++i) {
    const NodeId u = users[i];
    std::vector<ScoredNode> truth_ranked, retrieved_ranked;
    if (!walker.TopK(u, 100, 50000, /*exclude_friends=*/true,
                     /*rng_seed=*/1000 + i, &truth_ranked)
             .ok() ||
        !walker.TopK(u, 1000, 5000, /*exclude_friends=*/true,
                     /*rng_seed=*/5000 + i, &retrieved_ranked)
             .ok()) {
      return 1;
    }
    std::vector<NodeId> truth, retrieved;
    for (const ScoredNode& s : truth_ranked) truth.push_back(s.node);
    for (const ScoredNode& s : retrieved_ranked) {
      retrieved.push_back(s.node);
    }
    curves.push_back(InterpolatedPrecision(truth, retrieved));
  }
  PrecisionCurve avg = AverageCurves(curves);

  TablePrinter table({"recall", "interp. avg precision", "paper (Fig. 5)"});
  const char* paper_vals[11] = {"~1.0", "~0.98", "~0.97", "~0.95", "~0.93",
                                "~0.91", "~0.89", "~0.87", "~0.80", "~0.60",
                                "~0.25"};
  CsvWriter csv;
  const bool have_csv =
      OpenCsv("fig5_precision.csv", {"recall", "precision"}, &csv);
  for (std::size_t i = 0; i < avg.size(); ++i) {
    const double recall = static_cast<double>(i) / 10.0;
    table.AddRow({TablePrinter::Fmt(recall, 1),
                  TablePrinter::Fmt(avg[i], 3), paper_vals[i]});
    if (have_csv) {
      csv.AddRow({TablePrinter::Fmt(recall, 1),
                  TablePrinter::Fmt(avg[i], 5)});
    }
  }
  table.Print();
  std::printf("\npaper's headline checks: precision(recall=0.8) ~ 0.8 "
              "(measured %.2f); precision(recall=0.7) ~ 0.9 (measured "
              "%.2f)\n",
              avg[8], avg[7]);
  return 0;
}
