// The traced run's layer ledger. Every span here is recorded by the
// benchmark around its own calls into a module's public functions
// (engine, store, graph, core, serve); the counts come from what those
// functions already return. Each metric names the end-to-end metric it
// should move (gated ones first; the wall-clock figures are printed
// diagnostics of the untraced run):
//
//   engine.ingest_call_p50_ms   -> cpu_us_per_event; events_per_s, ack_p50_ms
//   engine.drain_p50_ms         -> visible_p50_ms
//   engine.stall_share          -> events_per_s, visible_p99_ms
//   engine.replica_mb           -> peak_rss_mb
//   engine.walk_p50_us          -> cpu_us_per_query; query_p50_ms
//   engine.topk_p50_us, engine.score_p50_us -> (no end-to-end traffic;
//                                  guards the count snapshots)
//   store.wal_*                 -> cpu_us_per_event; ack_p50_ms
//   store.checkpoint_*          -> cpu_us_per_event, peak_rss_mb; visible_p99_ms
//   store.publish_bytes_per_delta_byte -> cpu_us_per_event; visible_p50_ms
//   store.frozen_*_mb           -> peak_rss_mb
//   graph.mutate_ns_per_event   -> cpu_us_per_event; ack_p50_ms
//   graph.bytes_per_edge        -> peak_rss_mb
//   core.repair_*               -> cpu_us_per_event; events_per_s
//   core.walk_*                 -> cpu_us_per_query; query_p50_ms
//   serve.queue_wait_*, serve.service_p50_ms -> query_p50_ms, query_p99_ms
//   serve.batch_size_mean, serve.cache_hit_ratio -> cpu_us_per_query
//   serve.degraded_share, serve.shed_share -> ok_share

#include <cmath>
#include <filesystem>

#include "fastppr/core/theory.h"
#include "fastppr/store/checkpoint.h"
#include "fastppr/store/wal.h"
#include "phases.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Share of Ingest() wall time spent in windows slower than 5x the
/// median call: the consolidation and checkpoint stalls.
double StallShare(const std::vector<double>& call_ms) {
  const double cut = 5.0 * Median(call_ms);
  double stalled = 0.0;
  for (double ms : call_ms) {
    if (ms > cut) stalled += ms;
  }
  return Ratio(stalled, Sum(call_ms));
}

}  // namespace

void MeasureLayers(const Config& cfg, const Inputs& in, Deployment* d,
                   const WriteResult& write, const ReadResult& read,
                   const RepairDelta& repair, Tracer* tracer,
                   Report* report) {
  const int64_t root = tracer->Open("layers");

  // engine: the workload's own Ingest() spans.
  report->Metric("engine.ingest_call_p50_ms", Median(write.call_ms), "ms");
  report->Metric("engine.stall_share", StallShare(write.call_ms), "ratio");
  report->Metric("engine.replica_mb",
                 static_cast<double>(d->engine->RepairReplicaBytes()) / 1e6, "MB");

  // core: exact repair counts over the write phase.
  const double events = static_cast<double>(in.EventsIn(0, cfg.windows));
  const double steps = static_cast<double>(repair.after.walk_steps -
                                           repair.before.walk_steps);
  const double segments = static_cast<double>(repair.after.segments_updated -
                                              repair.before.segments_updated);
  double theory = 0.0;
  for (std::size_t w = 0; w < cfg.windows; ++w) theory += in.theory_steps[w];
  report->Metric("core.repair_steps_per_event", Ratio(steps, events), "count");
  report->Metric("core.repair_segments_per_event", Ratio(segments, events), "count");
  report->Metric("core.repair_steps_vs_theory", Ratio(steps, theory), "ratio");

  // store + graph: sizes of the live deployment.
  const auto frozen = d->service->FrozenStats();
  report->Metric("store.frozen_segment_mb",
                 static_cast<double>(frozen.segment_bytes) / 1e6, "MB");
  report->Metric("store.frozen_adjacency_mb",
                 static_cast<double>(frozen.adjacency_bytes) / 1e6, "MB");
  const auto volume = d->service->publish_volume();
  report->Metric("store.publish_bytes_per_delta_byte",
                 Ratio(static_cast<double>(volume.publish_delta_bytes()),
                       static_cast<double>(volume.presented_bytes)),
                 "ratio");
  report->Metric("graph.bytes_per_edge",
                 Ratio(static_cast<double>(d->engine->GraphMemoryBytes()),
                       static_cast<double>(d->engine->num_edges())),
                 "B");

  // serve: the workload's responses and the tier's own tallies.
  report->Metric("serve.queue_wait_p50_ms", Median(read.queue_ms), "ms");
  report->Metric("serve.queue_wait_p99_ms", Quantile(read.queue_ms, 0.99), "ms");
  report->Metric("serve.service_p50_ms", Median(read.service_ms), "ms");
  report->Metric("serve.batch_size_mean",
                 Ratio(static_cast<double>(d->tier->batched_requests()),
                       static_cast<double>(d->tier->batches_executed())),
                 "count");
  const auto cache = d->tier->cache_stats();
  report->Metric("serve.cache_hit_ratio",
                 Ratio(static_cast<double>(cache.hits),
                       static_cast<double>(cache.hits + cache.misses)),
                 "ratio");
  const auto outcomes = d->tier->outcomes();
  const double resolved = static_cast<double>(outcomes.resolved());
  report->Metric("serve.degraded_share",
                 Ratio(static_cast<double>(outcomes.admitted_degraded), resolved),
                 "ratio");
  report->Metric("serve.shed_share",
                 Ratio(static_cast<double>(outcomes.shed), resolved), "ratio");

  // engine + core: direct reads without the tier, on Zipf seeds.
  uint64_t fetches = 0;
  uint64_t segments_used = 0;
  uint64_t manual_steps = 0;
  uint64_t walk_ns = 0;
  std::vector<double> walk_us;
  std::vector<fastppr::ScoredNode> ranked;
  for (std::size_t i = 0; i < in.direct.size(); ++i) {
    fastppr::PersonalizedWalkResult stats;
    fastppr::Status status;
    const uint64_t ns = Timed(tracer, "engine.PersonalizedTopK", root, i, [&] {
      status = d->service->PersonalizedTopK(in.direct[i], cfg.k, cfg.walk_length,
                                            /*exclude_friends=*/true,
                                            0xd1ec7000ull + i, &ranked, &stats);
    });
    if (!status.ok()) Die("direct PersonalizedTopK: " + status.ToString());
    walk_ns += ns;
    walk_us.push_back(static_cast<double>(ns) * 1e-3);
    fetches += stats.fetches;
    segments_used += stats.segments_used;
    manual_steps += stats.manual_steps;
  }
  const double calls = static_cast<double>(in.direct.size());
  report->Metric("engine.walk_p50_us", Median(walk_us), "us");
  report->Metric("core.walk_fetches_per_query",
                 Ratio(static_cast<double>(fetches), calls), "count");
  report->Metric("core.walk_segments_per_query",
                 Ratio(static_cast<double>(segments_used), calls), "count");
  report->Metric("core.walk_manual_steps_per_query",
                 Ratio(static_cast<double>(manual_steps), calls), "count");
  // Corollary 9 at the c for which equation (4) gives this walk length.
  const double alpha = cfg.alpha_in;
  const double kk = static_cast<double>(cfg.k);
  const double c = static_cast<double>(cfg.walk_length) * (1.0 - alpha) /
                   (kk * std::pow(static_cast<double>(cfg.nodes) / kk, 1.0 - alpha));
  report->Metric("core.walk_fetches_vs_cor9",
                 Ratio(static_cast<double>(fetches) / calls,
                       fastppr::Corollary9FetchBound(cfg.k, cfg.walks_per_node,
                                                     alpha, c)),
                 "ratio");
  report->Metric("core.walk_ns_per_fetch",
                 Ratio(static_cast<double>(walk_ns), static_cast<double>(fetches)),
                 "ns");
  fastppr::ReadScratch scratch;
  std::vector<double> topk_us;
  std::vector<double> score_us;
  double score_sum = 0.0;
  for (std::size_t i = 0; i < in.direct.size(); ++i) {
    topk_us.push_back(1e-3 * static_cast<double>(Timed(
        tracer, "engine.TopKInto", root, i,
        [&] { d->service->TopKInto(cfg.k, &scratch); })));
    score_us.push_back(1e-3 * static_cast<double>(Timed(
        tracer, "engine.Score", root, i,
        [&] { score_sum += d->service->Score(in.direct[i]); })));
  }
  if (score_sum <= 0.0) Die("direct Score reads returned no mass");
  report->Metric("engine.topk_p50_us", Median(topk_us), "us");
  report->Metric("engine.score_p50_us", Median(score_us), "us");

  // engine: drain probe — each window's Quiesce() right after its
  // Ingest(), covering that window's repair and publish alone.
  std::vector<double> drain_ms;
  for (std::size_t w = cfg.windows; w < cfg.windows + cfg.drain_windows; ++w) {
    fastppr::Status status;
    Timed(tracer, "probe.Ingest", root, w,
          [&] { status = d->service->Ingest(in.Window(w)); });
    if (!status.ok()) Die("drain probe Ingest: " + status.ToString());
    drain_ms.push_back(Ms(Timed(tracer, "engine.Quiesce.drain", root, w,
                                [&] { d->service->Quiesce(); })));
  }
  report->Metric("engine.drain_p50_ms", Median(drain_ms), "ms");

  // store: one explicit checkpoint.
  fastppr::Status status;
  const uint64_t ckpt_ns = Timed(tracer, "store.Checkpoint", root, 0,
                                 [&] { status = d->engine->Checkpoint(); });
  if (!status.ok()) Die("Checkpoint: " + status.ToString());
  std::error_code ec;
  const auto ckpt_bytes = std::filesystem::file_size(
      d->dir + "/" + fastppr::kCheckpointFileName, ec);
  if (ec) Die("checkpoint file size: " + ec.message());
  report->Metric("store.checkpoint_ms", Ms(ckpt_ns), "ms");
  report->Metric("store.checkpoint_mb", static_cast<double>(ckpt_bytes) / 1e6, "MB");
  tracer->Close(root);
}

void MeasureReplays(const Config& cfg, const Inputs& in, Tracer* tracer,
                    Report* report) {
  const std::size_t lo = 0;
  const std::size_t hi = std::min(cfg.windows, cfg.replay_windows);
  const double events = static_cast<double>(in.EventsIn(lo, hi));
  const int64_t root = tracer->Open("replays");

  // store: the same windows through the WAL writer, into a fresh file
  // in the same kind of directory the deployment used.
  const std::string dir = cfg.work_dir + "/durability";
  std::filesystem::create_directories(dir);
  fastppr::WalWriter wal;
  fastppr::Status status = fastppr::WalWriter::Create(
      dir + "/replay.wal", fastppr::DurableManifest{}, &wal);
  if (!status.ok()) Die("WalWriter::Create: " + status.ToString());
  const uint64_t header = wal.bytes_written();
  std::vector<double> append_us;
  std::vector<double> sync_us;
  for (std::size_t w = lo; w < hi; ++w) {
    append_us.push_back(1e-3 * static_cast<double>(Timed(
        tracer, "store.WalWriter.AppendBatch", root, w,
        [&] { status = wal.AppendBatch(w, in.Window(w)); })));
    if (!status.ok()) Die("AppendBatch: " + status.ToString());
    sync_us.push_back(1e-3 * static_cast<double>(Timed(
        tracer, "store.WalWriter.Sync", root, w, [&] { status = wal.Sync(); })));
    if (!status.ok()) Die("Sync: " + status.ToString());
  }
  report->Metric("store.wal_append_p50_us", Median(append_us), "us");
  report->Metric("store.wal_fsync_p50_us", Median(sync_us), "us");
  report->Metric("store.wal_bytes_per_event",
                 Ratio(static_cast<double>(wal.bytes_written() - header), events),
                 "B");
  if (!wal.Close().ok()) Die("WAL close");
  std::filesystem::remove_all(dir);

  // graph: the stream's AddEdge/RemoveEdge calls on a copy of the graph.
  {
    fastppr::DiGraph graph = in.initial;
    double mutate_ns = 0.0;
    for (std::size_t w = lo; w < hi; ++w) {
      bool ok = true;
      mutate_ns += static_cast<double>(Timed(tracer, "graph.DiGraph.mutate", root, w, [&] {
        for (const EdgeEvent& ev : in.Window(w)) {
          ok &= (ev.kind == EdgeEvent::Kind::kInsert
                     ? graph.AddEdge(ev.edge.src, ev.edge.dst)
                     : graph.RemoveEdge(ev.edge.src, ev.edge.dst))
                    .ok();
        }
      }));
      if (!ok) Die("graph replay rejected an event");
    }
    report->Metric("graph.mutate_ns_per_event", Ratio(mutate_ns, events), "ns");
  }

  // core: the same windows through a flat engine on this thread.
  {
    fastppr::MonteCarloOptions mc;
    mc.walks_per_node = cfg.walks_per_node;
    mc.epsilon = cfg.epsilon;
    mc.seed = cfg.seed;
    fastppr::IncrementalPageRank flat(in.initial, mc);
    const uint64_t before = flat.lifetime_stats().walk_steps;
    double repair_ns = 0.0;
    for (std::size_t w = lo; w < hi; ++w) {
      repair_ns += static_cast<double>(
          Timed(tracer, "core.IncrementalPageRank.ApplyEvents", root, w,
                [&] { status = flat.ApplyEvents(in.Window(w)); }));
      if (!status.ok()) Die("flat ApplyEvents: " + status.ToString());
    }
    report->Metric("core.repair_ns_per_step",
                   Ratio(repair_ns, static_cast<double>(
                                        flat.lifetime_stats().walk_steps - before)),
                   "ns");
  }
  tracer->Close(root);
}

}  // namespace perfbench
