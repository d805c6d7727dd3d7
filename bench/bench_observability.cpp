// Observability layer cost + the serving/phase baseline it exposes
// (DESIGN.md §9).
//
//   * metrics_overhead_pct — quiescent ingest slowdown with metrics hot
//                            vs the same engine with metrics disabled
//                            (contract: <= 2%, asserted here and grepped
//                            in CI);
//   * {topk,score,personalized}_{p50,p99,p999}_us — per-query-class
//                            service latency percentiles from the
//                            engine's lock-free LatencyHistograms;
//   * util_{ingest,repair,publish} — per-phase utilization fractions
//                            derived from the PhaseTracer's epoch-
//                            stamped span timeline (the honest baseline
//                            a pipelined ingest restructure must beat);
//   * results/trace_observability.json — the same timeline as a
//                            chrome://tracing / Perfetto-loadable file.
//
//   bench_observability [--smoke] [--json <path>]
//
// --smoke shrinks the stream to CI size so the report path (and the
// overhead guard) is exercised on every push.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/generators.h"
#include "fastppr/obs/latency_histogram.h"
#include "fastppr/obs/phase_tracer.h"
#include "fastppr/util/check.h"
#include "fastppr/util/table_printer.h"

using namespace fastppr;
using namespace fastppr::bench;

namespace {

using PrEngine = ShardedEngine<IncrementalPageRank>;
using PrService = QueryService<IncrementalPageRank>;

std::vector<EdgeEvent> PowerLawEvents(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = 10;
  auto edges = PreferentialAttachment(gen, &rng);
  rng.Shuffle(&edges);
  std::vector<EdgeEvent> events;
  events.reserve(edges.size());
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  return events;
}

void AddHistogramKeys(JsonReport* report, const std::string& prefix,
                      const obs::LatencyHistogram& h) {
  const auto s = h.Summarize();
  report->Add(prefix + "_p50_us", static_cast<double>(s.p50_ns) / 1e3);
  report->Add(prefix + "_p99_us", static_cast<double>(s.p99_ns) / 1e3);
  report->Add(prefix + "_p999_us", static_cast<double>(s.p999_ns) / 1e3);
  report->Add(prefix + "_mean_us", s.mean_ns / 1e3);
  report->Add(prefix + "_count", static_cast<double>(s.count));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  Banner("Observability: metrics overhead, query-class latency "
         "percentiles, phase utilization",
         "the per-update cost model of Bahmani et al., VLDB 2010 "
         "(Theorem 1), measured per phase and per percentile");

  const std::size_t n = smoke ? 2000 : 20000;
  const std::size_t R = 5;
  const double eps = 0.2;
  const std::size_t window = smoke ? 512 : 4096;
  const std::size_t S = 4;
  const int reps = smoke ? 5 : 3;

  const auto events = PowerLawEvents(n, 77);
  std::printf("power-law stream: n=%zu, m=%zu insertions, R=%zu, "
              "eps=%.2f, window=%zu, shards=%zu%s\n\n",
              n, events.size(), R, eps, window, S,
              smoke ? " (smoke)" : "");

  MonteCarloOptions mc;
  mc.walks_per_node = R;
  mc.epsilon = eps;
  mc.seed = 90;
  const ShardedOptions sharding{S, S};

  JsonReport report("observability");
  report.Add("num_nodes", static_cast<double>(n));
  report.Add("num_events", static_cast<double>(events.size()));
  report.Add("window", static_cast<double>(window));
  report.Add("num_shards", static_cast<double>(S));
  report.Add("smoke", smoke ? 1.0 : 0.0);

  // --- Part 1: the overhead contract. Identical engine-only ingest
  // with metrics cold vs hot; determinism makes every rep bit-identical,
  // so best-of-N on both sides isolates the instrumentation cost from
  // box noise.
  const double cold_eps_sec = BestOfN(reps, [&] {
    PrEngine engine(n, mc, sharding);
    engine.SetMetricsEnabled(false);
    return TimeWindows(events, window, [&](std::span<const EdgeEvent> w) {
      return engine.ApplyEvents(w);
    });
  });
  const double hot_eps_sec = BestOfN(reps, [&] {
    PrEngine engine(n, mc, sharding);  // metrics on by default
    return TimeWindows(events, window, [&](std::span<const EdgeEvent> w) {
      return engine.ApplyEvents(w);
    });
  });
  const double metrics_overhead_pct =
      100.0 * (cold_eps_sec - hot_eps_sec) / cold_eps_sec;
  std::printf("ingest metrics-cold: %.0f events/sec\n", cold_eps_sec);
  std::printf("ingest metrics-hot:  %.0f events/sec  (overhead %.2f%%)\n\n",
              hot_eps_sec, metrics_overhead_pct);
  // The tentpole contract: always-on metrics must cost < 2% of ingest.
  FASTPPR_CHECK_MSG(metrics_overhead_pct <= 2.0,
                    "observability overhead exceeds the 2% budget");

  // --- Part 2: the serving baseline. One engine + service ingests the
  // stream (a personalized read every 4th window keeps the frozen
  // publish path exercised), then each query class runs a closed loop;
  // every latency lands in the engine's always-on histograms.
  auto engine = std::make_unique<PrEngine>(n, mc, sharding);
  auto service = std::make_unique<PrService>(engine.get());
  const obs::EngineMetrics& om = engine->metric_handles();

  std::size_t windows_fed = 0;
  const double serving_eps_sec =
      TimeWindows(events, window, [&](std::span<const EdgeEvent> w) {
        if (windows_fed++ % 4 == 0) {
          std::vector<ScoredNode> ranked;
          SnapshotInfo info;
          FASTPPR_CHECK(service
                            ->PersonalizedTopK(
                                static_cast<NodeId>((windows_fed * 131) % n),
                                10, 2000, /*exclude_friends=*/true,
                                /*rng_seed=*/windows_fed, &ranked, nullptr,
                                &info)
                            .ok());
          FASTPPR_CHECK(info.min_epoch == info.max_epoch);
        }
        return service->Ingest(w);
      });
  // Drain the pipeline + publisher before reading histograms and the
  // phase timeline: the tail windows' repair/publish spans land on the
  // pipeline threads after Ingest acks.
  service->Quiesce();
  report.Add("serving_events_per_sec", serving_eps_sec);

  const std::size_t topk_queries = smoke ? 200 : 1000;
  const std::size_t score_queries = smoke ? 20000 : 100000;
  const std::size_t personalized_queries = smoke ? 100 : 1000;

  ReadScratch scratch;
  for (std::size_t q = 0; q < topk_queries; ++q) {
    FASTPPR_CHECK(!service->TopKInto(10, &scratch).empty());
  }
  double sink = 0.0;
  for (std::size_t q = 0; q < score_queries; ++q) {
    sink += service->Score(static_cast<NodeId>((q * 97) % n));
  }
  FASTPPR_CHECK(sink >= 0.0);  // keep the loop observable
  for (std::size_t q = 0; q < personalized_queries; ++q) {
    std::vector<ScoredNode> ranked;
    SnapshotInfo info;
    FASTPPR_CHECK(service
                      ->PersonalizedTopK(static_cast<NodeId>((q * 97) % n),
                                         10, 2000, /*exclude_friends=*/true,
                                         /*rng_seed=*/q, &ranked, nullptr,
                                         &info)
                      .ok());
    FASTPPR_CHECK(info.min_epoch == info.max_epoch);
  }

  AddHistogramKeys(&report, "topk", *om.query_topk);
  AddHistogramKeys(&report, "score", *om.query_score);
  AddHistogramKeys(&report, "personalized", *om.query_personalized);
  AddHistogramKeys(&report, "ingest_window", *om.ingest_window);
  AddHistogramKeys(&report, "publish", *om.publish_phase);

  // --- Part 3: per-phase utilization over the serving run's timeline.
  // Ingest busy time lands on the writer track only (the caller
  // mutating the one store); repair has S executor lanes; publish is
  // the single publisher thread.
  const auto totals = engine->phase_tracer()->ComputeTotals();
  const double util_ingest = totals.Utilization(obs::Phase::kIngest);
  const double util_repair =
      totals.Utilization(obs::Phase::kRepair, static_cast<double>(S));
  const double util_publish = totals.Utilization(obs::Phase::kPublish);
  report.Add("util_ingest", util_ingest);
  report.Add("util_repair", util_repair);
  report.Add("util_publish", util_publish);
  report.Add("metrics_overhead_pct", metrics_overhead_pct);
  report.Add("cold_events_per_sec", cold_eps_sec);
  report.Add("hot_events_per_sec", hot_eps_sec);

  const std::string trace_path =
      ResultsDir() + "/trace_observability.json";
  const Status trace_status =
      engine->phase_tracer()->WriteChromeTrace(trace_path);
  if (!trace_status.ok()) {
    std::fprintf(stderr, "warning: %s\n",
                 trace_status.ToString().c_str());
  } else {
    std::printf("wrote %s\n", trace_path.c_str());
  }
  // The registry's own export (counters + gauges + histogram summaries)
  // rides along as a machine-readable artifact.
  {
    const std::string metrics_path =
        ResultsDir() + "/metrics_observability.json";
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f != nullptr) {
      const std::string json = engine->metrics()->ExportJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", metrics_path.c_str());
    }
  }

  const auto topk_sum = om.query_topk->Summarize();
  const auto score_sum = om.query_score->Summarize();
  const auto pers_sum = om.query_personalized->Summarize();
  TablePrinter table({"metric", "value"});
  table.AddRow({"metrics overhead %",
                TablePrinter::Fmt(metrics_overhead_pct, 2)});
  table.AddRow({"TopK p50/p99/p999 us",
                TablePrinter::Fmt(static_cast<double>(topk_sum.p50_ns) / 1e3,
                                  1) +
                    " / " +
                    TablePrinter::Fmt(
                        static_cast<double>(topk_sum.p99_ns) / 1e3, 1) +
                    " / " +
                    TablePrinter::Fmt(
                        static_cast<double>(topk_sum.p999_ns) / 1e3, 1)});
  table.AddRow(
      {"Score p50/p99/p999 us",
       TablePrinter::Fmt(static_cast<double>(score_sum.p50_ns) / 1e3, 2) +
           " / " +
           TablePrinter::Fmt(static_cast<double>(score_sum.p99_ns) / 1e3,
                             2) +
           " / " +
           TablePrinter::Fmt(static_cast<double>(score_sum.p999_ns) / 1e3,
                             2)});
  table.AddRow(
      {"Personalized p50/p99/p999 us",
       TablePrinter::Fmt(static_cast<double>(pers_sum.p50_ns) / 1e3, 1) +
           " / " +
           TablePrinter::Fmt(static_cast<double>(pers_sum.p99_ns) / 1e3,
                             1) +
           " / " +
           TablePrinter::Fmt(static_cast<double>(pers_sum.p999_ns) / 1e3,
                             1)});
  table.AddRow({"util ingest", TablePrinter::Fmt(util_ingest, 3)});
  table.AddRow({"util repair (/S)", TablePrinter::Fmt(util_repair, 3)});
  table.AddRow({"util publish", TablePrinter::Fmt(util_publish, 3)});
  table.Print();

  report.WriteTo(JsonPathFromArgs(
      argc, argv, ResultsDir() + "/BENCH_observability.json"));
  return 0;
}
