// The headline claim (Theorem 4, plus the Section 1.3 comparison): over m
// random-order arrivals, the total work to keep all PageRank estimates
// fresh is O(nR ln m / eps^2) — logarithmically more than initialization —
// while per-arrival work decays like nR/(t eps). Naive recomputation
// (power iteration or from-scratch Monte Carlo per arrival) is orders of
// magnitude more expensive. Also reproduces the Dirichlet-model bound
// (nR/eps^2) ln((m+n)/n).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "fastppr/baseline/monte_carlo_static.h"
#include "fastppr/baseline/power_iteration.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/theory.h"
#include "fastppr/graph/csr_graph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/table_printer.h"
#include "fastppr/util/timer.h"

using namespace fastppr;
using namespace fastppr::bench;

namespace {

/// The shared ingestion loop (bench_common.h) with this bench's seeds.
double MeasureIngest(std::size_t n, std::size_t R, double eps,
                     const std::vector<Edge>& edges, std::size_t batch,
                     WalkUpdateStats* stats = nullptr) {
  return MeasureIngestThroughput<WalkStore>(n, R, eps, edges, batch,
                                            /*store_seed=*/33,
                                            /*rng_seed=*/34, stats);
}

}  // namespace

int main(int argc, char** argv) {
  Banner("Incremental update work vs naive recomputation",
         "Theorem 4, Section 1.3 comparison, Dirichlet model "
         "(Bahmani et al., VLDB 2010)");

  const std::size_t n = 20000;
  const std::size_t R = 5;
  const double eps = 0.2;

  Rng rng(9);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = 10;
  gen.attractiveness = 3.0;
  auto edges = PreferentialAttachment(gen, &rng);
  const std::size_t m = edges.size();
  rng.Shuffle(&edges);  // random permutation arrival

  MonteCarloOptions mc;
  mc.walks_per_node = R;
  mc.epsilon = eps;
  mc.seed = 90;
  IncrementalPageRank engine(n, mc);

  // Log-binned per-arrival work trace (C2: E[M_t] <= nR/(t eps)).
  std::vector<std::size_t> bin_edges{1,    10,    100,   1000, 10000,
                                     50000, 100000, 200000};
  struct Bin {
    double updates = 0.0;
    double steps = 0.0;
    std::size_t count = 0;
  };
  std::vector<Bin> bins(bin_edges.size());

  WallTimer timer;
  for (std::size_t t = 1; t <= m; ++t) {
    const Edge& e = edges[t - 1];
    if (!engine.AddEdge(e.src, e.dst).ok()) return 1;
    for (std::size_t b = 0; b < bin_edges.size(); ++b) {
      const std::size_t hi =
          b + 1 < bin_edges.size() ? bin_edges[b + 1] : m + 1;
      if (t >= bin_edges[b] && t < hi) {
        bins[b].updates += static_cast<double>(
            engine.last_event_stats().segments_updated);
        bins[b].steps +=
            static_cast<double>(engine.last_event_stats().walk_steps);
        ++bins[b].count;
        break;
      }
    }
  }
  const double incr_seconds = timer.ElapsedSeconds();
  const double measured_steps =
      static_cast<double>(engine.lifetime_stats().walk_steps);

  std::printf("graph: n=%zu, m=%zu arrivals, R=%zu, eps=%.2f "
              "(%.2fs wall)\n\n",
              n, m, R, eps, incr_seconds);

  // C2: per-arrival decay.
  TablePrinter per_arrival({"arrival window t", "mean segments updated",
                            "Thm 4 bound nR/(t eps)", "mean walk steps"});
  CsvWriter csv;
  const bool have_csv = OpenCsv(
      "incremental_work.csv",
      {"t_window_lo", "mean_updates", "bound", "mean_steps"}, &csv);
  for (std::size_t b = 0; b < bins.size(); ++b) {
    if (bins[b].count == 0) continue;
    const double mean_updates =
        bins[b].updates / static_cast<double>(bins[b].count);
    const double mean_steps =
        bins[b].steps / static_cast<double>(bins[b].count);
    // Evaluate the bound at the geometric middle of the window.
    const std::size_t hi =
        b + 1 < bin_edges.size() ? bin_edges[b + 1] : m;
    const double mid = std::sqrt(static_cast<double>(bin_edges[b]) *
                                 static_cast<double>(hi));
    const double bound =
        Theorem4SegmentsPerArrival(n, R, eps,
                                   static_cast<std::size_t>(mid));
    per_arrival.AddRow({"[" + std::to_string(bin_edges[b]) + ", " +
                            std::to_string(hi) + ")",
                        TablePrinter::Fmt(mean_updates, 3),
                        TablePrinter::Fmt(bound, 3),
                        TablePrinter::Fmt(mean_steps, 3)});
    if (have_csv) {
      csv.AddRow({std::to_string(bin_edges[b]),
                  TablePrinter::Fmt(mean_updates, 4),
                  TablePrinter::Fmt(bound, 4),
                  TablePrinter::Fmt(mean_steps, 4)});
    }
  }
  per_arrival.Print();

  // C1: totals vs theory and vs the naive baselines. Baseline costs are
  // measured once and extrapolated analytically (running them m times is
  // exactly the prohibitive cost the paper argues against).
  CsrGraph snapshot = CsrGraph::FromDiGraph(engine.graph());
  PowerIterationOptions pi_opts;
  pi_opts.epsilon = eps;
  pi_opts.tolerance = 1e-8;
  WallTimer pi_timer;
  auto pi = PageRankPowerIteration(snapshot, pi_opts);
  const double pi_seconds = pi_timer.ElapsedSeconds();
  const double pi_edge_ops =
      static_cast<double>(pi.iterations) * static_cast<double>(m);

  Rng mc_rng(91);
  WallTimer mc_timer;
  auto static_mc = StaticMonteCarloPageRank(engine.graph(), R, eps, &mc_rng);
  const double mc_seconds = mc_timer.ElapsedSeconds();

  std::printf("\n");
  TablePrinter totals({"method", "total work over m arrivals (walk steps /"
                       " edge ops)",
                       "wall-clock estimate"});
  totals.AddRow({"incremental Monte Carlo (this paper)",
                 TablePrinter::Fmt(measured_steps, 0),
                 TablePrinter::Fmt(incr_seconds, 2) + " s (measured)"});
  totals.AddRow({"  Theorem 4 bound (nR/eps^2) H_m",
                 TablePrinter::Fmt(Theorem4TotalWork(n, R, eps, m), 0),
                 "-"});
  totals.AddRow({"power iteration per arrival (naive)",
                 TablePrinter::Fmt(pi_edge_ops * static_cast<double>(m) / 2,
                                   0),
                 TablePrinter::Fmt(pi_seconds * static_cast<double>(m) / 2,
                                   0) +
                     " s (extrapolated)"});
  totals.AddRow({"static Monte Carlo per arrival (naive)",
                 TablePrinter::Fmt(static_cast<double>(static_mc.total_steps) *
                                       static_cast<double>(m),
                                   0),
                 TablePrinter::Fmt(mc_seconds * static_cast<double>(m), 0) +
                     " s (extrapolated)"});
  totals.Print();
  std::printf("\nspeedup vs naive Monte Carlo: %.0fx; vs power iteration: "
              "%.0fx (work units)\n",
              static_cast<double>(static_mc.total_steps) *
                  static_cast<double>(m) / measured_steps,
              pi_edge_ops * static_cast<double>(m) / 2 / measured_steps);

  // C6: the Dirichlet arrival model.
  Rng dir_rng(92);
  DirichletStream dirichlet(n, m, &dir_rng);
  IncrementalPageRank dir_engine(n, mc);
  while (auto ev = dirichlet.Next()) {
    if (!dir_engine.ApplyEvent(*ev).ok()) return 1;
  }
  const double dir_steps =
      static_cast<double>(dir_engine.lifetime_stats().walk_steps);
  std::printf("\nDirichlet arrivals: measured total %.0f walk steps; "
              "bound (nR/eps^2) ln((m+n)/n) = %.0f\n",
              dir_steps, DirichletTotalWork(n, R, eps, m));

  // Event throughput: the same power-law stream through the slab store,
  // sequential and in batched ingestion windows (best of two runs each;
  // see BestOfTwo).
  WalkUpdateStats seq_stats;
  const double slab_seq = BestOfTwo(
      [&] { return MeasureIngest(n, R, eps, edges, 1, &seq_stats); });
  std::printf("\nevent throughput (same stream, store driven directly; "
              "batched windows repair each\nsegment once per window — see "
              "DESIGN.md — so throughput scales with the window):\n");
  TablePrinter layout({"ingestion", "events/sec", "ns/walk step"});
  layout.AddRow({"slab arenas, sequential", TablePrinter::Fmt(slab_seq, 0),
                 TablePrinter::Fmt(NsPerWalkStep(m, slab_seq, seq_stats),
                                   1)});

  JsonReport report("incremental_work");
  report.Add("num_nodes", static_cast<double>(n));
  report.Add("num_events", static_cast<double>(m));
  report.Add("slab_seq_events_per_sec", slab_seq);
  for (std::size_t batch : {1024ul, 4096ul, 16384ul}) {
    WalkUpdateStats stats;
    const double slab_batched = BestOfTwo(
        [&] { return MeasureIngest(n, R, eps, edges, batch, &stats); });
    const double ns_per_step = NsPerWalkStep(m, slab_batched, stats);
    layout.AddRow({"slab arenas, batch=" + std::to_string(batch),
                   TablePrinter::Fmt(slab_batched, 0),
                   TablePrinter::Fmt(ns_per_step, 1)});
    report.Add("slab_batch" + std::to_string(batch) + "_events_per_sec",
               slab_batched);
    if (batch == 4096) report.Add("batch4096_ns_per_step", ns_per_step);
  }
  layout.Print();
  report.Add("walk_steps_per_event",
             measured_steps / static_cast<double>(m));
  report.WriteTo(JsonPathFromArgs(
      argc, argv, ResultsDir() + "/BENCH_incremental_work.json"));
  return 0;
}
