// Theorem 6: maintaining SALSA's 2R alternating walk segments costs at
// most 16x the PageRank bound — 2x for storing 2R walks, 4x for the mean
// segment length 2/eps (eps enters squared), 2x because both endpoints of
// an arriving edge can trigger reroutes. We stream the same random-order
// arrivals through both engines and compare measured totals.

#include <cstdio>

#include "bench_common.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/theory.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/table_printer.h"
#include "fastppr/util/timer.h"

using namespace fastppr;
using namespace fastppr::bench;

namespace {

/// The shared ingestion loop (bench_common.h) with this bench's seeds
/// (store driven directly; see bench_incremental_work for the PageRank
/// twin).
double MeasureSalsaIngest(std::size_t n, std::size_t R, double eps,
                          const std::vector<Edge>& edges, std::size_t batch,
                          WalkUpdateStats* stats = nullptr) {
  return MeasureIngestThroughput<SalsaWalkStore>(n, R, eps, edges, batch,
                                                 /*store_seed=*/55,
                                                 /*rng_seed=*/56, stats);
}

}  // namespace

int main(int argc, char** argv) {
  Banner("SALSA vs PageRank incremental update cost",
         "Theorem 6 of Bahmani et al., VLDB 2010 (16x bound)");

  const std::size_t n = 10000;
  const std::size_t R = 5;
  const double eps = 0.2;

  Rng rng(11);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = 10;
  auto edges = PreferentialAttachment(gen, &rng);
  rng.Shuffle(&edges);
  const std::size_t m = edges.size();

  MonteCarloOptions mc;
  mc.walks_per_node = R;
  mc.epsilon = eps;
  mc.seed = 110;

  IncrementalPageRank pagerank(n, mc);
  IncrementalSalsa salsa(n, mc);
  for (const Edge& e : edges) {
    if (!pagerank.AddEdge(e.src, e.dst).ok()) return 1;
    if (!salsa.AddEdge(e.src, e.dst).ok()) return 1;
  }

  const double pr_steps =
      static_cast<double>(pagerank.lifetime_stats().walk_steps);
  const double salsa_steps =
      static_cast<double>(salsa.lifetime_stats().walk_steps);
  const double pr_updates =
      static_cast<double>(pagerank.lifetime_stats().segments_updated);
  const double salsa_updates =
      static_cast<double>(salsa.lifetime_stats().segments_updated);

  TablePrinter table({"engine", "segments rerouted", "walk steps",
                      "theory bound (total steps)"});
  table.AddRow({"incremental PageRank (R walks)",
                TablePrinter::Fmt(pr_updates, 0),
                TablePrinter::Fmt(pr_steps, 0),
                TablePrinter::Fmt(Theorem4TotalWork(n, R, eps, m), 0)});
  table.AddRow({"incremental SALSA (2R walks)",
                TablePrinter::Fmt(salsa_updates, 0),
                TablePrinter::Fmt(salsa_steps, 0),
                TablePrinter::Fmt(Theorem6SalsaTotalWork(n, R, eps, m),
                                  0)});
  table.Print();

  std::printf("\nmeasured SALSA/PageRank work ratio: %.2f (Theorem 6 "
              "worst-case constant: 16; the realized ratio is smaller "
              "because the bound stacks three pessimistic factors)\n",
              salsa_steps / pr_steps);

  CsvWriter csv;
  if (OpenCsv("salsa_update.csv",
              {"engine", "segments", "steps", "bound"}, &csv)) {
    csv.AddRow({"pagerank", TablePrinter::Fmt(pr_updates, 0),
                TablePrinter::Fmt(pr_steps, 0),
                TablePrinter::Fmt(Theorem4TotalWork(n, R, eps, m), 0)});
    csv.AddRow({"salsa", TablePrinter::Fmt(salsa_updates, 0),
                TablePrinter::Fmt(salsa_steps, 0),
                TablePrinter::Fmt(Theorem6SalsaTotalWork(n, R, eps, m),
                                  0)});
  }

  // Event throughput (same stream, SALSA store driven directly; best of
  // two runs each).
  WalkUpdateStats seq_stats;
  const double slab_seq = BestOfTwo(
      [&] { return MeasureSalsaIngest(n, R, eps, edges, 1, &seq_stats); });
  std::printf("\nSALSA event throughput (store driven directly; batched "
              "windows repair each\nsegment once per window, so throughput "
              "scales with the window):\n");
  TablePrinter layout({"ingestion", "events/sec", "ns/walk step"});
  layout.AddRow({"slab arenas, sequential", TablePrinter::Fmt(slab_seq, 0),
                 TablePrinter::Fmt(NsPerWalkStep(m, slab_seq, seq_stats),
                                   1)});

  JsonReport report("salsa_update");
  report.Add("num_nodes", static_cast<double>(n));
  report.Add("num_events", static_cast<double>(m));
  report.Add("slab_seq_events_per_sec", slab_seq);
  for (std::size_t batch : {1024ul, 4096ul, 16384ul}) {
    WalkUpdateStats stats;
    const double slab_batched = BestOfTwo(
        [&] { return MeasureSalsaIngest(n, R, eps, edges, batch, &stats); });
    const double ns_per_step = NsPerWalkStep(m, slab_batched, stats);
    layout.AddRow({"slab arenas, batch=" + std::to_string(batch),
                   TablePrinter::Fmt(slab_batched, 0),
                   TablePrinter::Fmt(ns_per_step, 1)});
    report.Add("slab_batch" + std::to_string(batch) + "_events_per_sec",
               slab_batched);
    if (batch == 4096) report.Add("batch4096_ns_per_step", ns_per_step);
  }
  layout.Print();
  report.WriteTo(JsonPathFromArgs(
      argc, argv, ResultsDir() + "/BENCH_salsa_update.json"));
  return 0;
}
