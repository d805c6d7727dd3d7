#ifndef FASTPPR_OBS_ENGINE_METRICS_H_
#define FASTPPR_OBS_ENGINE_METRICS_H_

// The engine/serving metric schema (DESIGN.md §9): one registration
// helper so ShardedEngine and QueryService agree on names, units and
// striping, and hot paths hold raw handles instead of doing name
// lookups. All handles point into the owning MetricsRegistry; the
// struct is trivially copyable (QueryService caches a copy).

#include <cstddef>

#include "fastppr/obs/latency_histogram.h"
#include "fastppr/obs/metrics.h"

namespace fastppr::obs {

struct EngineMetrics {
  // --- counters (striped by shard where marked) ----------------------
  Counter* events_ingested = nullptr;       ///< events applied or rejected
  Counter* walks_repaired = nullptr;        ///< segments re-routed [shard]
  Counter* walk_steps = nullptr;            ///< repair walker steps [shard]
  Counter* segments_dirtied = nullptr;      ///< dirty-feed rows consumed
                                            ///  by publishes [shard]
  Counter* wal_records = nullptr;           ///< WAL records appended
  Counter* wal_bytes = nullptr;             ///< WAL bytes appended
  Counter* wal_fsyncs = nullptr;            ///< WAL fsync calls
  Counter* frozen_publishes_full = nullptr; ///< full frozen-view rebuilds
  Counter* frozen_publishes_delta = nullptr;///< delta frozen publishes
  Counter* count_publishes = nullptr;       ///< seqlock count publishes
  Counter* snapshot_pins = nullptr;         ///< personalized view pins
                                            ///  [shard of seed]

  // --- serving-tier counters (striped by query class: the stripe
  // index is serve::QueryClass — 0 TopK, 1 Score, 2 Personalized) ----
  Counter* serve_admitted = nullptr;        ///< served at full fidelity
  Counter* serve_degraded = nullptr;        ///< served degraded (reduced
                                            ///  walk or stale fallback)
  Counter* serve_shed = nullptr;            ///< rejected (enqueue-full or
                                            ///  controlled-delay shed)
  Counter* serve_deadline_expired = nullptr;///< cancelled by deadline
  Counter* serve_batches = nullptr;         ///< personalized batch
                                            ///  executions (one pin each)
  Counter* serve_batched_requests = nullptr;///< requests served inside
                                            ///  those batches

  // --- result-cache counters (striped by cache shard: the stripe
  // index is serve::ResultCache's shard of the key) ------------------
  Counter* serve_cache_hit = nullptr;       ///< admission bypassed
  Counter* serve_cache_miss = nullptr;      ///< probed, absent or retired
  Counter* serve_cache_evict = nullptr;     ///< LRU evictions on insert

  // --- gauges --------------------------------------------------------
  Counter* windows_applied = nullptr;       ///< ingestion epoch
  Counter* serve_queue_depth_hw = nullptr;  ///< per-class admission-queue
                                            ///  high-water depth [class]
  // The pipeline's publish queue (DESIGN.md §11): high-water depth,
  // written by its single producer.
  Counter* pipeline_publish_queue_hw = nullptr;  ///< boundary→publisher

  // --- latency histograms (nanoseconds; exported in µs) --------------
  LatencyHistogram* ingest_phase = nullptr;   ///< per-window writer phase
  LatencyHistogram* repair_phase = nullptr;   ///< per-shard window repair
  LatencyHistogram* publish_phase = nullptr;  ///< frozen-view publish
  LatencyHistogram* wal_fsync = nullptr;      ///< per-window fsync
  LatencyHistogram* ingest_window = nullptr;  ///< whole ApplyWindow
  LatencyHistogram* query_topk = nullptr;     ///< TopK service latency
  LatencyHistogram* query_score = nullptr;    ///< Score service latency
  LatencyHistogram* query_personalized = nullptr;  ///< PersonalizedTopK
  LatencyHistogram* serve_queue_wait = nullptr;    ///< measured sojourn
                                                   ///  (admitted + CoDel
                                                   ///  dequeue sheds)
  LatencyHistogram* serve_admitted_latency = nullptr;  ///< queue+service,
                                                       ///  admitted only

  static EngineMetrics Register(MetricsRegistry* reg, std::size_t shards) {
    EngineMetrics m;
    m.events_ingested = reg->RegisterCounter("events_ingested");
    m.walks_repaired = reg->RegisterCounter("walks_repaired", shards);
    m.walk_steps = reg->RegisterCounter("walk_steps", shards);
    m.segments_dirtied = reg->RegisterCounter("segments_dirtied", shards);
    m.wal_records = reg->RegisterCounter("wal_records");
    m.wal_bytes = reg->RegisterCounter("wal_bytes");
    m.wal_fsyncs = reg->RegisterCounter("wal_fsyncs");
    m.frozen_publishes_full = reg->RegisterCounter("frozen_publishes_full");
    m.frozen_publishes_delta =
        reg->RegisterCounter("frozen_publishes_delta");
    m.count_publishes = reg->RegisterCounter("count_publishes");
    m.snapshot_pins = reg->RegisterCounter("snapshot_pins", shards);
    // Serving-tier outcome counters: one stripe per query class (3 =
    // serve::kNumQueryClasses; literal to keep obs/ free of serve/
    // includes — a static_assert in serve/serving_tier.h pins them).
    m.serve_admitted = reg->RegisterCounter("serve_admitted", 3);
    m.serve_degraded = reg->RegisterCounter("serve_degraded", 3);
    m.serve_shed = reg->RegisterCounter("serve_shed", 3);
    m.serve_deadline_expired =
        reg->RegisterCounter("serve_deadline_expired", 3);
    m.serve_batches = reg->RegisterCounter("serve_batches", 3);
    m.serve_batched_requests =
        reg->RegisterCounter("serve_batched_requests", 3);
    // Result-cache counters: one stripe per cache shard (8 =
    // serve::kResultCacheShards; literal for the same reason, pinned by
    // a static_assert in serve/result_cache.h).
    m.serve_cache_hit = reg->RegisterCounter("serve_cache_hit", 8);
    m.serve_cache_miss = reg->RegisterCounter("serve_cache_miss", 8);
    m.serve_cache_evict = reg->RegisterCounter("serve_cache_evict", 8);
    m.windows_applied = reg->RegisterGauge("windows_applied");
    m.serve_queue_depth_hw = reg->RegisterGauge("serve_queue_depth_hw", 3);
    m.pipeline_publish_queue_hw =
        reg->RegisterGauge("pipeline_publish_queue_hw");
    m.ingest_phase = reg->RegisterHistogram("ingest_phase");
    m.repair_phase = reg->RegisterHistogram("repair_phase");
    m.publish_phase = reg->RegisterHistogram("publish_phase");
    m.wal_fsync = reg->RegisterHistogram("wal_fsync");
    m.ingest_window = reg->RegisterHistogram("ingest_window");
    m.query_topk = reg->RegisterHistogram("query_topk");
    m.query_score = reg->RegisterHistogram("query_score");
    m.query_personalized = reg->RegisterHistogram("query_personalized");
    m.serve_queue_wait = reg->RegisterHistogram("serve_queue_wait");
    m.serve_admitted_latency =
        reg->RegisterHistogram("serve_admitted_latency");
    return m;
  }
};

}  // namespace fastppr::obs

#endif  // FASTPPR_OBS_ENGINE_METRICS_H_
