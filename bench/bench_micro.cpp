// Microbenchmarks (google-benchmark): the primitive operations whose
// costs the paper's asymptotic analysis is built from — segment
// generation, incremental edge insertion/deletion, estimate queries,
// stitched-walk steps and fetch operations.
//
// In addition to the google-benchmark suite, main() always runs a
// power-law ingestion throughput measurement (the slab store, sequential
// and batched) and writes it as machine-readable JSON —
// results/BENCH_micro.json by default, overridable with --json <path> —
// so every future PR has a perf trajectory to compare against.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/graph/generators.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/timer.h"

namespace fastppr {
namespace {

DiGraph MakeGraph(std::size_t n, std::size_t m, uint64_t seed) {
  Rng rng(seed);
  ChungLuOptions gen;
  gen.num_nodes = n;
  gen.num_edges = m;
  gen.alpha_in = 0.76;
  gen.alpha_out = 0.6;
  DiGraph g(n);
  for (const Edge& e : ChungLuDirected(gen, &rng)) {
    if (!g.AddEdge(e.src, e.dst).ok()) std::abort();
  }
  return g;
}

void BM_WalkStoreInit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  DiGraph g = MakeGraph(n, n * 15, 1);
  for (auto _ : state) {
    WalkStore store;
    store.Init(g, 10, 0.2, 2);
    benchmark::DoNotOptimize(store.TotalVisits());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n) * 10);
}
BENCHMARK(BM_WalkStoreInit)->Arg(1000)->Arg(10000);

void BM_IncrementalAddEdge(benchmark::State& state) {
  const std::size_t n = 20000;
  DiGraph g = MakeGraph(n, n * 15, 3);
  MonteCarloOptions mc;
  mc.walks_per_node = 10;
  mc.epsilon = 0.2;
  IncrementalPageRank engine(g, mc);
  Rng rng(4);
  for (auto _ : state) {
    NodeId u = static_cast<NodeId>(rng.UniformIndex(n));
    NodeId v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u == v) v = (v + 1) % n;
    benchmark::DoNotOptimize(engine.AddEdge(u, v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalAddEdge);

void BM_IncrementalApplyEventsBatch(benchmark::State& state) {
  const std::size_t n = 20000;
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  DiGraph g = MakeGraph(n, n * 15, 3);
  MonteCarloOptions mc;
  mc.walks_per_node = 10;
  mc.epsilon = 0.2;
  IncrementalPageRank engine(g, mc);
  Rng rng(4);
  std::vector<EdgeEvent> events(batch);
  for (auto _ : state) {
    state.PauseTiming();
    for (EdgeEvent& ev : events) {
      NodeId u = static_cast<NodeId>(rng.UniformIndex(n));
      NodeId v = static_cast<NodeId>(rng.UniformIndex(n));
      if (u == v) v = (v + 1) % n;
      ev = EdgeEvent{EdgeEvent::Kind::kInsert, Edge{u, v}};
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.ApplyEvents(events));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_IncrementalApplyEventsBatch)->Arg(64)->Arg(1024);

void BM_IncrementalAddRemoveCycle(benchmark::State& state) {
  const std::size_t n = 20000;
  DiGraph g = MakeGraph(n, n * 15, 5);
  MonteCarloOptions mc;
  mc.walks_per_node = 10;
  mc.epsilon = 0.2;
  IncrementalPageRank engine(g, mc);
  Rng rng(6);
  for (auto _ : state) {
    NodeId u = static_cast<NodeId>(rng.UniformIndex(n));
    NodeId v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u == v) v = (v + 1) % n;
    benchmark::DoNotOptimize(engine.AddEdge(u, v));
    benchmark::DoNotOptimize(engine.RemoveEdge(u, v));
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_IncrementalAddRemoveCycle);

void BM_EstimateQuery(benchmark::State& state) {
  const std::size_t n = 20000;
  DiGraph g = MakeGraph(n, n * 15, 7);
  MonteCarloOptions mc;
  mc.walks_per_node = 10;
  mc.epsilon = 0.2;
  IncrementalPageRank engine(g, mc);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.NormalizedEstimate(
        static_cast<NodeId>(rng.UniformIndex(n))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EstimateQuery);

void BM_TopK(benchmark::State& state) {
  const std::size_t n = 20000;
  DiGraph g = MakeGraph(n, n * 15, 9);
  MonteCarloOptions mc;
  mc.walks_per_node = 10;
  mc.epsilon = 0.2;
  IncrementalPageRank engine(g, mc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.TopK(static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_TopK)->Arg(10)->Arg(100);

void BM_PersonalizedWalk(benchmark::State& state) {
  const std::size_t n = 20000;
  DiGraph g = MakeGraph(n, n * 15, 10);
  MonteCarloOptions mc;
  mc.walks_per_node = 10;
  mc.epsilon = 0.2;
  IncrementalPageRank engine(g, mc);
  PersonalizedPageRankWalker walker(&engine.walk_store(),
                                    &engine.graph());
  const uint64_t length = static_cast<uint64_t>(state.range(0));
  PersonalizedWalkScratch scratch;
  uint64_t seed = 0;
  for (auto _ : state) {
    PersonalizedWalkResult result;
    const NodeId start = static_cast<NodeId>(seed % n);
    Status s = walker.Walk(start, length, ++seed, &scratch, &result);
    if (!s.ok()) std::abort();
    benchmark::DoNotOptimize(result.fetches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(length));
}
BENCHMARK(BM_PersonalizedWalk)->Arg(1000)->Arg(10000);

void BM_SegmentGeneration(benchmark::State& state) {
  // One fresh segment: the 1/eps-step primitive every reroute pays.
  DiGraph g = MakeGraph(5000, 75000, 11);
  Rng rng(12);
  for (auto _ : state) {
    NodeId cur = static_cast<NodeId>(rng.UniformIndex(5000));
    uint64_t visits = 1;
    while (!rng.Bernoulli(0.2)) {
      if (g.OutDegree(cur) == 0) break;
      cur = g.RandomOutNeighbor(cur, &rng);
      ++visits;
    }
    benchmark::DoNotOptimize(visits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentGeneration);

// ---- power-law ingestion throughput (machine-readable) ---------------

std::vector<Edge> PowerLawStream(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = 10;
  auto edges = PreferentialAttachment(gen, &rng);
  rng.Shuffle(&edges);
  return edges;
}

void WriteThroughputJson(const std::string& json_path) {
  const std::size_t n = 10000;
  const std::size_t R = 5;
  const double eps = 0.2;
  const std::size_t kBatch = 4096;
  const auto edges = PowerLawStream(n, 21);
  const double m = static_cast<double>(edges.size());

  // The shared ingestion loop (bench_common.h), sequential and batched;
  // best of two runs apiece.
  double steps_per_event = 0.0;
  double batched_steps_per_event = 0.0;
  auto run_slab = [&](std::size_t batch, double* steps_out) {
    WalkUpdateStats stats;
    const double events_per_sec = bench::MeasureIngestThroughput<WalkStore>(
        n, R, eps, edges, batch, /*store_seed=*/33, /*rng_seed=*/34,
        &stats);
    *steps_out = static_cast<double>(stats.walk_steps) / m;
    return events_per_sec;
  };
  const double slab_eps_sec =
      bench::BestOfTwo([&] { return run_slab(1, &steps_per_event); });
  const double batched_eps_sec = bench::BestOfTwo(
      [&] { return run_slab(kBatch, &batched_steps_per_event); });

  std::printf("power-law ingestion (n=%zu, m=%.0f, R=%zu, eps=%.2f):\n"
              "  slab sequential   : %12.0f events/sec\n"
              "  slab batch=%-5zu  : %12.0f events/sec\n"
              "  walk steps/event  : %.3f sequential, %.3f batched\n",
              n, m, R, eps, slab_eps_sec, kBatch, batched_eps_sec,
              steps_per_event, batched_steps_per_event);

  bench::JsonReport report("micro");
  report.Add("num_nodes", static_cast<double>(n));
  report.Add("num_events", m);
  report.Add("walks_per_node", static_cast<double>(R));
  report.Add("epsilon", eps);
  report.Add("slab_seq_events_per_sec", slab_eps_sec);
  report.Add("slab_batched_events_per_sec", batched_eps_sec);
  report.Add("batch_size", static_cast<double>(kBatch));
  report.Add("walk_steps_per_event_seq", steps_per_event);
  report.Add("walk_steps_per_event_batched", batched_steps_per_event);
  report.WriteTo(json_path);
}

}  // namespace
}  // namespace fastppr

int main(int argc, char** argv) {
  const std::string json_path = fastppr::bench::JsonPathFromArgs(
      argc, argv, fastppr::bench::ResultsDir() + "/BENCH_micro.json");
  // Strip --json [<path>] before handing argv to google-benchmark.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 < argc) ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());

  fastppr::WriteThroughputJson(json_path);

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
