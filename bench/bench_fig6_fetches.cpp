// Figure 6: the number of fetches to the walk database needed to compose a
// stitched personalized walk of length s, for R in {5, 10, 20} stored
// segments per node — observed (thin lines in the paper) vs the Theorem 8
// bound evaluated with each user's own fitted power-law exponent (thick
// lines). Also checks the Remark 2 / Corollary 9 arithmetic.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "fastppr/analysis/power_law.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/core/theory.h"
#include "fastppr/graph/generators.h"
#include "fastppr/graph/digraph.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/table_printer.h"

using namespace fastppr;
using namespace fastppr::bench;

int main() {
  Banner("Fetches vs walk length, R in {5,10,20}: observed vs Theorem 8",
         "Figure 6 and Remark 2 of Bahmani et al., VLDB 2010");

  const std::size_t n = 50000;
  const double eps = 0.2;
  Rng rng(6);
  ChungLuOptions gen;
  gen.num_nodes = n;
  gen.num_edges = 900000;
  gen.alpha_in = 0.76;
  gen.alpha_out = 0.6;
  auto edges = ChungLuDirected(gen, &rng);
  DiGraph graph(n);
  for (const Edge& e : edges) {
    if (!graph.AddEdge(e.src, e.dst).ok()) return 1;
  }

  std::vector<NodeId> users;
  while (users.size() < 100) {
    NodeId u = static_cast<NodeId>(rng.UniformIndex(n));
    const std::size_t f = graph.OutDegree(u);
    if (f >= 20 && f <= 30) users.push_back(u);
  }

  const std::vector<uint64_t> lengths{100,  500,   1000,  2000, 5000,
                                      10000, 20000, 50000};
  CsvWriter csv;
  const bool have_csv = OpenCsv(
      "fig6_fetches.csv",
      {"R", "steps", "observed_fetches", "theorem8_bound"}, &csv);

  for (std::size_t R : {5u, 10u, 20u}) {
    WalkStore store;
    store.Init(graph, R, eps, 600 + R);
    PersonalizedPageRankWalker walker(&store, &graph);
    PersonalizedWalkScratch scratch;

    // Per-user alpha from the empirical long-walk distribution, fitted on
    // the paper's [2f, 20f] window.
    std::vector<double> alphas(users.size(), 0.76);
    for (std::size_t i = 0; i < users.size(); ++i) {
      PersonalizedWalkResult long_walk;
      if (!walker.Walk(users[i], 50000, 7000 + i, &scratch, &long_walk)
               .ok()) {
        return 1;
      }
      std::vector<double> freqs;
      freqs.reserve(scratch.visited[0].size());
      for (NodeId node : scratch.visited[0]) {
        freqs.push_back(static_cast<double>(scratch.counts[0][node]));
      }
      std::sort(freqs.begin(), freqs.end(), std::greater<double>());
      const std::size_t f = graph.OutDegree(users[i]);
      PowerLawFit fit = FitPowerLaw(freqs, 2 * f, 20 * f);
      if (fit.alpha > 0.2 && fit.alpha < 0.99) alphas[i] = fit.alpha;
    }

    std::printf("\nR = %zu\n", R);
    TablePrinter table({"walk steps s", "observed fetches (avg)",
                        "Theorem 8 bound (avg)"});
    for (uint64_t s : lengths) {
      double observed = 0.0;
      double bound = 0.0;
      for (std::size_t i = 0; i < users.size(); ++i) {
        PersonalizedWalkResult walk;
        if (!walker.Walk(users[i], s, 9000 + 31 * i + s, &scratch, &walk)
                 .ok()) {
          return 1;
        }
        observed += static_cast<double>(walk.fetches);
        bound += Theorem8FetchBound(static_cast<double>(s), n, R,
                                    alphas[i]);
      }
      observed /= static_cast<double>(users.size());
      bound /= static_cast<double>(users.size());
      table.AddRow({std::to_string(s), TablePrinter::Fmt(observed, 1),
                    TablePrinter::Fmt(bound, 1)});
      if (have_csv) {
        csv.AddRow({std::to_string(R), std::to_string(s),
                    TablePrinter::Fmt(observed, 2),
                    TablePrinter::Fmt(bound, 2)});
      }
    }
    table.Print();
  }

  std::printf("\npaper's observations: the bound upper-bounds the "
              "measurement, and the fetch count is not very sensitive to "
              "R.\n");

  // Remark 2 arithmetic (alpha=0.75, c=5, R=10, k=100, n=1e8).
  std::printf("\nRemark 2 check: s_k = %.0f (paper: 63200), Corollary 9 "
              "fetch bound = %.0f (paper: 2000)\n",
              WalkLengthForTopK(100, 100000000, 0.75, 5.0),
              Corollary9FetchBound(100, 10, 0.75, 5.0));
  return 0;
}
