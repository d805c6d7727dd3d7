// Sharded parallel engine (src/fastppr/engine/): ingestion throughput at
// S in {1, 2, 4, 8} node shards against the flat engine on the same
// power-law stream, plus query QPS through the QueryService snapshot
// layer — quiescent and concurrent with ingestion. Since PR 4 every
// query class is concurrent: TopK/Score read seqlock count snapshots
// and PersonalizedTopK stitches walks against frozen segment-snapshot
// views, so the concurrent sections measure BOTH the reader throughput
// and the ingestion rate the writer sustains underneath. The S=1 run
// doubles as a determinism audit: its merged visit counts must equal
// the flat engine's bit for bit.
//
// Since PR 3 the engine shares ONE epoch-versioned slab graph across
// all shards, so the report also carries the memory story: measured
// bytes-per-edge of the shared graph, what S per-shard replicas would
// cost on the same slab layout (the PR 2 architecture — an exact S×)
// and on the PR 2 legacy vector-of-vectors layout, plus the process
// peak RSS. Since PR 5 it additionally reports the frozen-view memory
// of the query service: per-shard frozen segment bytes and the dense
// owned-row table sizes versus the global-row-table model the pre-PR 5
// snapshots carried (shardS_frozen_* keys).
//
// Since PR 9 the engine runs the three-stage pipeline by default
// (ingest k+1 overlaps repair k overlaps publish k-1), so the report
// additionally carries the pipeline story: per-stage utilization
// (util_ingest / util_repair / util_publish from the phase tracer),
// their sum pipeline_overlap_util (> 1.0 means the stages genuinely
// overlap on a multi-core box), and publish_bytes_per_delta_byte — the
// structural-sharing contract that each frozen publish allocates about
// one delta's worth of bytes, FASTPPR_CHECKed at <= 1.5.
//
// The deployment ladder closes the report: an interleaved insert/delete
// churn stream (each event a delete with probability 1/2) cut into
// windows of 4096, 1024 and 200 events, through the flat engine and
// through the S=2 pipelined engine with a QueryService attached. It
// reports process CPU per event (every thread counted) and repair
// dispatches per shard per window, read from the repair_phase
// histogram: the window coupling repairs each window in one dispatch
// per shard, whatever the mix of inserts and deletes in it.
//
//   bench_sharded [--smoke] [--json <path>]
//
// --smoke shrinks the stream to CI size (seconds, not minutes) so the
// report path is exercised on every push.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/check.h"
#include "fastppr/util/table_printer.h"
#include "fastppr/util/timer.h"
#include "legacy/legacy_digraph.h"

using namespace fastppr;
using namespace fastppr::bench;

namespace {

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

/// The deployment ladder's churn workload over the same power-law edge
/// set: 80% of the edges bootstrap the graph, the rest are held out.
/// Each event deletes a uniformly random live edge with probability
/// 1/2, otherwise inserts a held-out edge (a deleted one once the pool
/// is empty), so every event is valid.
struct ChurnWorkload {
  DiGraph initial;
  std::vector<EdgeEvent> events;
};

ChurnWorkload MakeChurn(const std::vector<EdgeEvent>& edges, std::size_t n,
                        std::size_t num_events, uint64_t seed) {
  ChurnWorkload out{DiGraph(n), {}};
  const std::size_t boot = edges.size() * 4 / 5;
  std::vector<Edge> live, pool, deleted;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    (i < boot ? live : pool).push_back(edges[i].edge);
  }
  for (const Edge& e : live) {
    FASTPPR_CHECK(out.initial.AddEdge(e.src, e.dst).ok());
  }
  auto take = [](std::vector<Edge>* v, std::size_t i) {
    const Edge e = (*v)[i];
    (*v)[i] = v->back();
    v->pop_back();
    return e;
  };
  Rng rng(seed);
  out.events.reserve(num_events);
  while (out.events.size() < num_events) {
    const bool can_insert = !pool.empty() || !deleted.empty();
    if (live.empty() || (can_insert && !rng.Bernoulli(0.5))) {
      Edge e;
      if (!pool.empty()) {
        e = pool.back();
        pool.pop_back();
      } else {
        e = take(&deleted, rng.UniformIndex(deleted.size()));
      }
      live.push_back(e);
      out.events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
    } else {
      const Edge e = take(&live, rng.UniformIndex(live.size()));
      deleted.push_back(e);
      out.events.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, e});
    }
  }
  return out;
}

/// Process CPU microseconds per event spent in `run`.
template <typename RunFn>
double CpuUsPerEvent(std::size_t num_events, const RunFn& run) {
  const double cpu0 = ProcessCpuSeconds();
  run();
  return (ProcessCpuSeconds() - cpu0) * 1e6 /
         static_cast<double>(num_events);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  Banner("Sharded parallel engine: ingestion scaling + query service QPS",
         "the sharded PageRank Store deployment of Bahmani et al., "
         "VLDB 2010 (Section 1.1)");

  const std::size_t n = smoke ? 2000 : 20000;
  const std::size_t R = 5;
  const double eps = 0.2;
  const std::size_t window = smoke ? 512 : 4096;
  const std::size_t topk_queries = smoke ? 50 : 400;
  const std::size_t score_queries = smoke ? 20000 : 200000;
  const std::size_t personalized_queries = smoke ? 5 : 40;

  const auto events = PowerLawEvents(n, 21);
  const double m = static_cast<double>(events.size());
  std::printf("power-law stream: n=%zu, m=%.0f insertions, R=%zu, "
              "eps=%.2f, window=%zu%s\n\n",
              n, m, R, eps, window, smoke ? " (smoke)" : "");

  MonteCarloOptions mc;
  mc.walks_per_node = R;
  mc.epsilon = eps;
  mc.seed = 90;

  JsonReport report("sharded");
  report.Add("num_nodes", static_cast<double>(n));
  report.Add("num_events", m);
  report.Add("window", static_cast<double>(window));
  report.Add("smoke", smoke ? 1.0 : 0.0);

  // Flat baseline: one engine, same windows. Best-of-three fresh runs
  // (the box is shared; determinism makes the reps bit-identical).
  std::unique_ptr<IncrementalPageRank> flat_holder;
  const double flat_eps_sec = BestOfN(3, [&] {
    flat_holder = std::make_unique<IncrementalPageRank>(n, mc);
    return TimeWindows(events, window, [&](std::span<const EdgeEvent> w) {
      return flat_holder->ApplyEvents(w);
    });
  });
  IncrementalPageRank& flat = *flat_holder;
  report.Add("flat_events_per_sec", flat_eps_sec);
  std::printf("flat engine: %.0f events/sec\n\n", flat_eps_sec);

  // Memory story of the shared graph. "Replica model" is what the PR 2
  // architecture pays for the same final graph: S full copies — on this
  // PR's slab layout (exact S x shared) and on PR 2's actual legacy
  // vector-of-vectors layout (measured below).
  const double shared_graph_bytes =
      static_cast<double>(flat.social_store().MemoryBytes());
  const double shared_bytes_per_edge = shared_graph_bytes / m;
  double legacy_graph_bytes = 0.0;
  {
    legacy::DiGraph legacy_graph(n);
    for (const EdgeEvent& ev : events) {
      const Status s =
          ev.kind == EdgeEvent::Kind::kInsert
              ? legacy_graph.AddEdge(ev.edge.src, ev.edge.dst)
              : legacy_graph.RemoveEdge(ev.edge.src, ev.edge.dst);
      if (!s.ok()) std::abort();
    }
    legacy_graph_bytes = static_cast<double>(legacy_graph.MemoryBytes());
  }
  report.Add("graph_bytes_shared", shared_graph_bytes);
  report.Add("graph_bytes_per_edge", shared_bytes_per_edge);
  report.Add("legacy_graph_bytes_per_replica", legacy_graph_bytes);
  std::printf("graph memory: shared slab %.1f bytes/edge "
              "(legacy layout: %.1f bytes/edge per replica)\n\n",
              shared_bytes_per_edge, legacy_graph_bytes / m);

  TablePrinter table({"shards", "threads", "ingest events/sec",
                      "vs flat", "TopK QPS", "Score QPS",
                      "TopK QPS (conc)", "Pers QPS (conc)"});
  report.Add("hardware_concurrency",
             static_cast<double>(std::thread::hardware_concurrency()));
  // One worker thread per shard: on a single-core box the S > 1 rows
  // then measure the replication overhead honestly; on a multi-core box
  // they measure the repair-parallelism payoff.
  for (std::size_t S : {1ul, 2ul, 4ul, 8ul}) {
    // Best-of-three fresh ingest runs (see the flat baseline); the
    // engine and service of the last rep serve the query sections below
    // — every rep's final state is bit-identical by the determinism
    // contract.
    const ShardedOptions sopts{S, S};
    std::unique_ptr<ShardedEngine<IncrementalPageRank>> engine_holder;
    std::unique_ptr<QueryService<IncrementalPageRank>> service_holder;
    const double ingest_eps_sec = BestOfN(3, [&] {
      service_holder.reset();
      engine_holder = std::make_unique<ShardedEngine<IncrementalPageRank>>(
          n, mc, sopts);
      service_holder = std::make_unique<QueryService<IncrementalPageRank>>(
          engine_holder.get());
      const double eps_sec =
          TimeWindows(events, window, [&](std::span<const EdgeEvent> w) {
            return service_holder->Ingest(w);
          });
      // Quiesce outside the timed region: the timed rate is the
      // pipeline's ACK rate (what a caller observes); the audits below
      // are defined at the drained boundary.
      service_holder->Quiesce();
      return eps_sec;
    });
    ShardedEngine<IncrementalPageRank>& engine = *engine_holder;
    QueryService<IncrementalPageRank>& service = *service_holder;

    // Pipeline stage utilization over the ingest run just timed (the
    // tracer covers this engine's lifetime, which so far is exactly
    // that run). Ingest is recorded on the writer track only, repair
    // on S lanes, publish on one; pipeline_overlap_util sums the raw
    // busy fractions — above 1.0 only when the stages genuinely overlap
    // on spare cores.
    const auto totals = engine.phase_tracer()->ComputeTotals();
    const double util_ingest = totals.Utilization(obs::Phase::kIngest);
    const double util_repair =
        totals.Utilization(obs::Phase::kRepair, static_cast<double>(S));
    const double util_publish = totals.Utilization(obs::Phase::kPublish);
    const double overlap_util = totals.Utilization(obs::Phase::kIngest) +
                                totals.Utilization(obs::Phase::kRepair) +
                                totals.Utilization(obs::Phase::kPublish);

    // The structural-sharing contract: frozen publishes allocated about
    // one delta's worth of bytes per presented delta byte (full
    // captures excluded on both sides of the ratio).
    const auto volume = service.publish_volume();
    const double publish_ratio =
        volume.presented_bytes == 0
            ? 0.0
            : static_cast<double>(volume.publish_delta_bytes()) /
                  static_cast<double>(volume.presented_bytes);
    if (volume.publishes_delta > 0) {
      FASTPPR_CHECK_MSG(publish_ratio <= 1.5,
                        "structural-sharing publishes must stay near "
                        "1x delta bytes");
    }

    if (S == 1) {
      // Determinism audit: 1 shard == the flat engine, bit for bit.
      const std::vector<int64_t> merged = engine.MergedRankingCounts();
      for (NodeId v = 0; v < n; ++v) {
        FASTPPR_CHECK_MSG(merged[v] == flat.walk_store().VisitCount(v),
                          "S=1 must match the flat engine exactly");
      }
    }

    // Quiescent query throughput against the published snapshots
    // (caller-owned ReadScratch: the steady-state path allocates
    // nothing).
    ReadScratch scratch;
    WallTimer topk_timer;
    for (std::size_t q = 0; q < topk_queries; ++q) {
      if (service.TopKInto(10, &scratch).size() != 10) std::abort();
    }
    const double topk_qps =
        static_cast<double>(topk_queries) / topk_timer.ElapsedSeconds();

    WallTimer score_timer;
    double sink = 0.0;
    for (std::size_t q = 0; q < score_queries; ++q) {
      sink += service.Score(static_cast<NodeId>(q % n));
    }
    const double score_qps =
        static_cast<double>(score_queries) / score_timer.ElapsedSeconds();
    if (sink < 0.0) std::abort();  // keep the loop observable

    // Untimed warm-up: the timed loop below measures steady-state
    // walks, not the first read's cold caches.
    {
      std::vector<ScoredNode> ranked;
      if (!service.PersonalizedTopK(0, 10, 5000, true, 0, &ranked).ok()) {
        std::abort();
      }
    }
    WallTimer walk_timer;
    for (std::size_t q = 0; q < personalized_queries; ++q) {
      std::vector<ScoredNode> ranked;
      if (!service
               .PersonalizedTopK(static_cast<NodeId>((q * 97) % n), 10,
                                 5000, /*exclude_friends=*/true,
                                 /*rng_seed=*/q, &ranked)
               .ok()) {
        std::abort();
      }
    }
    const double personalized_qps =
        static_cast<double>(personalized_queries) /
        walk_timer.ElapsedSeconds();

    // Frozen-view memory (PR 5 dense owned-row tables): the S shards'
    // dense tables together hold exactly ONE global table's worth of
    // rows; the pre-dense layout carried n * spn row headers PER shard
    // — reported as the row-model reduction below. The warm-up above
    // published the views this measures.
    const auto frozen = service.FrozenStats();
    const double frozen_row_reduction =
        frozen.segment_rows_dense == 0
            ? 1.0
            : static_cast<double>(frozen.segment_rows_global_model) /
                  static_cast<double>(frozen.segment_rows_dense);

    // Reads concurrent with ingestion: a reader thread hammers TopK
    // against a fresh engine while the main thread re-ingests the
    // stream. The seqlock snapshots keep readers lock-free throughout.
    ShardedEngine<IncrementalPageRank> engine2(n, mc, sopts);
    QueryService<IncrementalPageRank> service2(&engine2);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> concurrent_reads{0};
    std::thread reader([&] {
      ReadScratch reader_scratch;
      while (!stop.load(std::memory_order_acquire)) {
        if (service2.TopKInto(10, &reader_scratch).empty()) std::abort();
        concurrent_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
    const double concurrent_ingest_eps =
        TimeWindows(events, window, [&](std::span<const EdgeEvent> w) {
          return service2.Ingest(w);
        });
    const double concurrent_seconds = m / concurrent_ingest_eps;
    stop.store(true, std::memory_order_release);
    reader.join();
    const double concurrent_qps =
        static_cast<double>(concurrent_reads.load()) / concurrent_seconds;

    // Personalized reads concurrent with ingestion (the PR 4 tentpole):
    // a reader thread stitches PersonalizedTopK walks from the frozen
    // segment + adjacency snapshot views while the main thread
    // re-ingests the stream. Reported alongside: the ingestion rate the
    // writer sustains underneath — the snapshot layer's whole point is
    // that walks no longer serialize with (or stall) the writer.
    ShardedEngine<IncrementalPageRank> engine3(n, mc, sopts);
    QueryService<IncrementalPageRank> service3(&engine3);
    std::atomic<bool> stop_walks{false};
    std::atomic<uint64_t> concurrent_walks{0};
    std::thread walker([&] {
      uint64_t q = 0;
      while (!stop_walks.load(std::memory_order_acquire)) {
        std::vector<ScoredNode> ranked;
        SnapshotInfo pinfo;
        if (!service3
                 .PersonalizedTopK(static_cast<NodeId>((q * 131) % n), 10,
                                   5000, /*exclude_friends=*/true,
                                   /*rng_seed=*/q, &ranked, nullptr,
                                   &pinfo)
                 .ok()) {
          std::abort();
        }
        // Single-epoch contract of the frozen views.
        if (pinfo.min_epoch != pinfo.max_epoch) std::abort();
        ++q;
        concurrent_walks.fetch_add(1, std::memory_order_relaxed);
      }
    });
    const double ingest_eps_during_walks =
        TimeWindows(events, window, [&](std::span<const EdgeEvent> w) {
          return service3.Ingest(w);
        });
    const double walks_seconds = m / ingest_eps_during_walks;
    const double walks_done =
        static_cast<double>(concurrent_walks.load());
    stop_walks.store(true, std::memory_order_release);
    walker.join();
    const double concurrent_personalized_qps = walks_done / walks_seconds;

    table.AddRow({std::to_string(S), std::to_string(engine.num_threads()),
                  TablePrinter::Fmt(ingest_eps_sec, 0),
                  TablePrinter::Fmt(ingest_eps_sec / flat_eps_sec, 2) +
                      "x",
                  TablePrinter::Fmt(topk_qps, 0),
                  TablePrinter::Fmt(score_qps, 0),
                  TablePrinter::Fmt(concurrent_qps, 0),
                  TablePrinter::Fmt(concurrent_personalized_qps, 0)});
    // Replica elimination, measured: one shared graph instead of S
    // copies. The before side is S x bytes of the same graph — on this
    // slab layout (what PR 2's architecture would pay here) and on
    // PR 2's actual legacy layout.
    const double graph_bytes =
        static_cast<double>(engine.GraphMemoryBytes());
    const double replica_model_bytes =
        graph_bytes * static_cast<double>(S);
    const double legacy_replica_bytes =
        legacy_graph_bytes * static_cast<double>(S);

    const std::string prefix = "shard" + std::to_string(S);
    report.Add(prefix + "_threads",
               static_cast<double>(engine.num_threads()));
    report.Add(prefix + "_events_per_sec", ingest_eps_sec);
    report.Add(prefix + "_speedup_vs_flat", ingest_eps_sec / flat_eps_sec);
    report.Add(prefix + "_topk_qps", topk_qps);
    report.Add(prefix + "_score_qps", score_qps);
    report.Add(prefix + "_personalized_qps", personalized_qps);
    report.Add(prefix + "_concurrent_topk_qps", concurrent_qps);
    report.Add(prefix + "_concurrent_personalized_qps",
               concurrent_personalized_qps);
    report.Add(prefix + "_events_per_sec_during_personalized",
               ingest_eps_during_walks);
    report.Add(prefix + "_frozen_segment_bytes_all_shards",
               static_cast<double>(frozen.segment_bytes));
    report.Add(prefix + "_frozen_segment_bytes_max_shard",
               static_cast<double>(frozen.max_shard_segment_bytes));
    report.Add(prefix + "_frozen_segment_row_table_bytes",
               static_cast<double>(frozen.segment_row_table_bytes));
    report.Add(prefix + "_frozen_rows_dense",
               static_cast<double>(frozen.segment_rows_dense));
    report.Add(prefix + "_frozen_rows_global_model",
               static_cast<double>(frozen.segment_rows_global_model));
    report.Add(prefix + "_frozen_row_reduction_vs_global_model",
               frozen_row_reduction);
    report.Add(prefix + "_frozen_adjacency_bytes",
               static_cast<double>(frozen.adjacency_bytes));
    report.Add(prefix + "_graph_bytes_shared", graph_bytes);
    report.Add(prefix + "_graph_bytes_replica_model", replica_model_bytes);
    report.Add(prefix + "_graph_bytes_legacy_replicas",
               legacy_replica_bytes);
    report.Add(prefix + "_graph_memory_reduction_vs_replica_model",
               replica_model_bytes / graph_bytes);
    report.Add(prefix + "_graph_memory_reduction_vs_legacy_replicas",
               legacy_replica_bytes / graph_bytes);
    report.Add(prefix + "_util_ingest", util_ingest);
    report.Add(prefix + "_util_repair", util_repair);
    report.Add(prefix + "_util_publish", util_publish);
    report.Add(prefix + "_pipeline_overlap_util", overlap_util);
    report.Add(prefix + "_publish_bytes_per_delta_byte", publish_ratio);
    if (S == 4) {
      // Headline pipeline keys from the canonical S=4 configuration.
      report.Add("util_ingest", util_ingest);
      report.Add("util_repair", util_repair);
      report.Add("util_publish", util_publish);
      report.Add("pipeline_overlap_util", overlap_util);
      report.Add("publish_bytes_per_delta_byte", publish_ratio);
      std::printf("pipeline (S=4): util ingest %.2f / repair %.2f / "
                  "publish %.2f, overlap %.2f, publish bytes per delta "
                  "byte %.3f\n\n",
                  util_ingest, util_repair, util_publish, overlap_util,
                  publish_ratio);
    }
  }
  table.Print();

  // Deployment ladder over interleaved churn (see the header comment).
  const ChurnWorkload churn =
      MakeChurn(events, n, smoke ? 8 * 1024 : 48 * 4096, 22);
  std::printf("\ndeployment ladder: %zu interleaved churn events "
              "(deletes with probability 1/2)\n",
              churn.events.size());
  TablePrinter ladder({"window", "flat CPU us/event",
                       "S=2 + service CPU us/event",
                       "repair dispatches per shard per window"});
  for (const std::size_t w : {4096ul, 1024ul, 200ul}) {
    IncrementalPageRank flat_churn(churn.initial, mc);
    const double flat_us = CpuUsPerEvent(churn.events.size(), [&] {
      TimeWindows(churn.events, w, [&](std::span<const EdgeEvent> ev) {
        return flat_churn.ApplyEvents(ev);
      });
    });

    ShardedEngine<IncrementalPageRank> engine(churn.initial, mc,
                                              ShardedOptions{2, 2});
    QueryService<IncrementalPageRank> service(&engine);
    const uint64_t dispatches0 = engine.metric_handles().repair_phase->count();
    const double sharded_us = CpuUsPerEvent(churn.events.size(), [&] {
      TimeWindows(churn.events, w, [&](std::span<const EdgeEvent> ev) {
        return service.Ingest(ev);
      });
      service.Quiesce();
    });
    const double windows = static_cast<double>(
        (churn.events.size() + w - 1) / w);
    const double dispatches_per_shard_window =
        static_cast<double>(engine.metric_handles().repair_phase->count() -
                            dispatches0) /
        (2.0 * windows);

    const std::string key = "churn_w" + std::to_string(w);
    report.Add(key + "_flat_cpu_us_per_event", flat_us);
    report.Add(key + "_s2_service_cpu_us_per_event", sharded_us);
    report.Add(key + "_repair_dispatches_per_shard_window",
               dispatches_per_shard_window);
    ladder.AddRow({std::to_string(w), TablePrinter::Fmt(flat_us, 2),
                   TablePrinter::Fmt(sharded_us, 2),
                   TablePrinter::Fmt(dispatches_per_shard_window, 2)});
  }
  ladder.Print();
  std::printf("\nS=1 merged counts verified bit-identical to the flat "
              "engine; TopK/Score are lock-free seqlock snapshot reads "
              "and PersonalizedTopK walks frozen segment-snapshot views "
              "(single-epoch, never serializing with ingestion).\nOne "
              "shared "
              "epoch-versioned graph serves every shard: at S=4 the "
              "replica architecture would pay 4.0x the graph memory on "
              "this layout (%.1fx on the PR 2 legacy layout).\n",
              4.0 * legacy_graph_bytes / shared_graph_bytes);

  // Whole-process high-water mark (covers the flat baseline, the
  // transient legacy graph and every S): footprint context only — the
  // per-configuration memory claims above are MemoryBytes() accounting.
  report.Add("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  report.WriteTo(JsonPathFromArgs(argc, argv,
                                  ResultsDir() + "/BENCH_sharded.json"));
  return 0;
}
