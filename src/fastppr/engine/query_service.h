#ifndef FASTPPR_ENGINE_QUERY_SERVICE_H_
#define FASTPPR_ENGINE_QUERY_SERVICE_H_

// Concurrent serving layer over a ShardedEngine (see DESIGN.md
// sections 4, 6 and 11).
//
// Ranking reads (TopK / Score) are served from ONE epoch-stamped
// snapshot of the merged visit counts (every shard's counts summed),
// double-buffered behind a seqlock: the boundary thread publishes into
// the inactive buffer and flips a sequence counter (release); readers
// validate the counter around their (relaxed, atomic) loads and retry on
// a concurrent flip. Readers therefore never block ingestion and take no
// lock; ingestion's hot path (the per-event repairs) never synchronizes
// with readers at all — only the publish at each window boundary touches
// the shared buffers.
//
// Personalized reads (PersonalizedTopKInto) are served from three
// versioned row tables (store/segment_snapshot.h): the walk segments of
// every shard in one table indexed by global segment id (u * spn + k),
// the out-adjacency and, for SALSA, the in-adjacency. The service
// implements the engine's BoundarySink: at each window boundary, on the
// engine's pipeline thread, it writes a new version of every row the
// window's own record names — the segments each shard's repair plan
// lists and the adjacency rows of the window's applied edges — then
// flips the published {seq, epoch} pin under the view mutex. Only the
// constructor's publish copies every row. A request pins the current
// publish under that mutex (held only across the pin and the unpin,
// never across a walk), walks the tables as of the pinned seq with plain
// loads into the caller's dense walk scratch, and unpins. Versions a
// publish replaces are freed at the first publish after the last reader
// that could reach them unpins. One walker serves both estimators: the
// engine's step policy (Engine::WalkSteps) fixes the walk's sides, its
// scratch and whether the in-adjacency table exists.
//
// Consistency model:
//  * Count reads: one torn-free read of the merged buffer, stamped with
//    the ingestion epoch (windows applied) it was published at, so
//    every read is single-epoch (SnapshotInfo min_epoch == max_epoch).
//  * Personalized reads: one pin covers the segments and the adjacency,
//    so one walk observes ONE epoch throughout (SnapshotInfo reports
//    min_epoch == max_epoch). The publish runs inside the window's
//    retirement, so Quiesce() (the engine's Drain()) is the freshness
//    barrier.

#include <atomic>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "fastppr/core/ppr_walker.h"
#include "fastppr/core/ranking.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/types.h"
#include "fastppr/obs/engine_metrics.h"
#include "fastppr/obs/latency_histogram.h"
#include "fastppr/store/segment_snapshot.h"
#include "fastppr/store/walk_slab.h"
#include "fastppr/util/shard.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Which ingestion epochs a read saw. Every read is single-epoch by
/// construction (one seqlock buffer, or one pin), so min_epoch ==
/// max_epoch.
struct SnapshotInfo {
  uint64_t min_epoch = 0;
  uint64_t max_epoch = 0;
};

/// Caller-owned scratch for allocation-free steady-state merged reads
/// (one ReadScratch per reader thread; reused across queries).
struct ReadScratch {
  std::vector<int64_t> counts;  ///< merged per-node counts
  std::vector<NodeId> ranked;   ///< TopKInto output
};

/// The double-buffered, epoch-stamped snapshot of the merged counts
/// (seqlock). Single writer (the window-boundary thread), any number of
/// lock-free readers.
class SnapshotBuffer {
 public:
  void Init(std::size_t num_nodes) {
    for (Buf& b : bufs_) {
      b.counts = std::vector<std::atomic<int64_t>>(num_nodes);
    }
  }

  /// Writer only. Fills the inactive buffer and flips to it. The buffer
  /// size is pinned at Init: a future growable-node engine must rebuild
  /// the service instead of publishing out of bounds.
  template <typename CountFn>
  void Publish(std::size_t num_nodes, const CountFn& count, int64_t total,
               uint64_t epoch) {
    const uint64_t w = seq_.load(std::memory_order_relaxed);
    // Orders the previous publish's seq store before this publish's data
    // stores (fence-fence synchronization with the readers' acquire
    // fence): a reader that observes any of the stores below is then
    // guaranteed to observe seq >= w on its re-check and retry. Without
    // this, a weakly-ordered CPU could let a reader validate a buffer
    // two publishes stale.
    std::atomic_thread_fence(std::memory_order_release);
    Buf& b = bufs_[(w + 1) & 1];
    FASTPPR_CHECK_MSG(b.counts.size() == num_nodes,
                      "count snapshot buffer no longer matches "
                      "num_nodes — rebuild the QueryService after "
                      "growing the engine");
    for (std::size_t v = 0; v < num_nodes; ++v) {
      b.counts[v].store(count(v), std::memory_order_relaxed);
    }
    b.total.store(total, std::memory_order_relaxed);
    b.epoch.store(epoch, std::memory_order_relaxed);
    seq_.store(w + 1, std::memory_order_release);
  }

  /// Copies the counts into `out` (caller-owned, resized here: at most
  /// one allocation per scratch lifetime) and the total into `total`;
  /// returns the snapshot's epoch. Lock-free: a concurrent publish costs
  /// a retry, never a torn copy.
  uint64_t ReadInto(std::vector<int64_t>* out, int64_t* total) const {
    std::vector<int64_t>& counts = *out;
    for (;;) {
      const uint64_t s1 = seq_.load(std::memory_order_acquire);
      const Buf& b = bufs_[s1 & 1];
      counts.resize(b.counts.size());
      for (std::size_t v = 0; v < counts.size(); ++v) {
        counts[v] = b.counts[v].load(std::memory_order_relaxed);
      }
      const int64_t t = b.total.load(std::memory_order_relaxed);
      const uint64_t epoch = b.epoch.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) {
        *total = t;
        return epoch;
      }
    }
  }

  /// Single-node read; returns the snapshot's epoch.
  uint64_t ReadOne(NodeId v, int64_t* count, int64_t* total) const {
    for (;;) {
      const uint64_t s1 = seq_.load(std::memory_order_acquire);
      const Buf& b = bufs_[s1 & 1];
      const int64_t c = b.counts[v].load(std::memory_order_relaxed);
      const int64_t t = b.total.load(std::memory_order_relaxed);
      const uint64_t epoch = b.epoch.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) {
        *count = c;
        *total = t;
        return epoch;
      }
    }
  }

 private:
  struct Buf {
    std::vector<std::atomic<int64_t>> counts;
    std::atomic<int64_t> total{0};
    std::atomic<uint64_t> epoch{0};
  };
  Buf bufs_[2];
  std::atomic<uint64_t> seq_{0};
};


/// Publish-volume accounting for the `publish_bytes_per_delta_byte`
/// contract. `presented_bytes` is the DENOMINATOR: the dirty volume the
/// window's record handed the publish, duplicates included (8 id bytes
/// plus the row's current content per repaired segment or applied edge,
/// segment words at 8 bytes and adjacency ids at 4). `bytes_delta` is
/// the NUMERATOR: the versions (header plus u32 ids) the delta publishes
/// allocated. The constructor's whole-table publish counts on neither
/// side.
struct PublishVolume {
  uint64_t publishes_delta = 0;  ///< per row table
  uint64_t bytes_delta = 0;
  uint64_t presented_bytes = 0;

  uint64_t publish_delta_bytes() const { return bytes_delta; }
  void Accumulate(const PublishVolume& o) {
    publishes_delta += o.publishes_delta;
    bytes_delta += o.bytes_delta;
    presented_bytes += o.presented_bytes;
  }
};

/// Serving front door: ingest windows through Ingest(), read rankings
/// concurrently through TopK()/Score(), run personalized queries
/// concurrently through PersonalizedTopKInto()/PersonalizedTopK().
/// `Engine` is a BasicIncrementalEngine: TopK/Score rank by its rank
/// side's visit counts (PageRank visits, SALSA authority visits), and
/// the personalized read is Algorithm 1 under its step policy.
///
/// Single-service contract: a QueryService is its engine's one
/// window-boundary sink (attaching a second aborts). Every window
/// applied after its construction, through Ingest() or the engine's
/// ApplyEvents, is published from its own record at its boundary.
template <typename Engine>
class QueryService : private ShardedEngine<Engine>::BoundarySink {
  using Steps = typename Engine::WalkSteps;
  using Ctx = typename ShardedEngine<Engine>::BoundaryContext;

 public:
  explicit QueryService(ShardedEngine<Engine>* engine)
      : engine_(engine),
        spn_(engine->shard(0).walk_store().segments_per_node()),
        segments_(engine->num_nodes() * spn_),
        out_(engine->num_nodes()),
        in_(Steps::kSides > 1 ? engine->num_nodes() : 0) {
    om_ = engine_->metric_handles();
    const auto& store = engine_->shard(0).walk_store();
    walks_per_node_ = store.walks_per_node();
    epsilon_ = store.epsilon();
    counts_.Init(engine_->num_nodes());
    engine_->SetBoundarySink(this);
    // The ctor returns with a published view in place (readers CHECK
    // one exists): the one publish that copies every row.
    PublishBoundary(engine_->QuiescentBoundaryContext(), /*full=*/true);
  }

  /// The engine outlives the service: detach the boundary sink.
  ~QueryService() override { engine_->SetBoundarySink(nullptr); }

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  ShardedEngine<Engine>* engine() { return engine_; }

  /// Applies one ingestion window; snapshots publish at the window
  /// boundary, downstream of the engine's pipeline. On a failed event
  /// the applied prefix is still repaired and published.
  Status Ingest(std::span<const EdgeEvent> window) {
    std::lock_guard<std::mutex> lock(window_mu_);
    return engine_->ApplyEvents(window);
  }

  /// The freshness barrier: blocks until every window submitted through
  /// Ingest() is fully applied AND published (the engine's Drain(): the
  /// publish runs inside each window's retirement).
  void Quiesce() { engine_->Drain(); }

  /// Epoch of the most recent window boundary's count publish (the
  /// frozen view flips right after it, in the same boundary).
  uint64_t published_epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// Aggregate publish accounting across the three row tables. Read at
  /// a quiescent point (Quiesce()) for a consistent total;
  /// publish_delta_bytes() / presented_bytes is the
  /// publish_bytes_per_delta_byte contract bench_sharded enforces.
  PublishVolume publish_volume() const {
    std::lock_guard<std::mutex> lock(view_mu_);
    return volume_;
  }

  /// Memory accounting of the frozen row tables (safe concurrently with
  /// ingestion). `segment_rows` is the one global table's row count;
  /// `segment_rows_global_model` what a global table per shard would
  /// hold (S * n * spn rows).
  struct FrozenViewStats {
    std::size_t segment_bytes = 0;  ///< heads + versions not yet freed
    std::size_t segment_row_table_bytes = 0;
    std::size_t segment_rows = 0;
    std::size_t segment_rows_global_model = 0;
    std::size_t adjacency_bytes = 0;  ///< both sides
  };
  FrozenViewStats FrozenStats() const {
    FrozenViewStats out;
    out.segment_bytes = segments_.MemoryBytes();
    out.segment_row_table_bytes = segments_.row_table_bytes();
    out.segment_rows = segments_.num_rows();
    out.segment_rows_global_model =
        engine_->num_shards() * segments_.num_rows();
    out.adjacency_bytes = out_.MemoryBytes() + in_.MemoryBytes();
    return out;
  }

  /// Merged per-node counts from the current snapshot into caller-owned
  /// scratch (allocation-free once the scratch is warm). Returns a
  /// reference to scratch->counts. Lock-free.
  const std::vector<int64_t>& SnapshotCountsInto(
      ReadScratch* scratch, int64_t* total = nullptr,
      SnapshotInfo* info = nullptr) const {
    int64_t t = 0;
    const uint64_t epoch = counts_.ReadInto(&scratch->counts, &t);
    if (total != nullptr) *total = t;
    if (info != nullptr) *info = SnapshotInfo{epoch, epoch};
    return scratch->counts;
  }

  /// Allocating convenience wrapper around SnapshotCountsInto.
  std::vector<int64_t> SnapshotCounts(int64_t* total = nullptr,
                                      SnapshotInfo* info = nullptr) const {
    ReadScratch scratch;
    SnapshotCountsInto(&scratch, total, info);
    return std::move(scratch.counts);
  }

  /// Nodes with the k highest snapshot counts (the shared TopKByCount
  /// ranking — identical ordering to the engines' TopK), built in
  /// caller-owned scratch: the steady-state read path allocates nothing.
  /// Returns a reference to scratch->ranked. Lock-free.
  const std::vector<NodeId>& TopKInto(std::size_t k, ReadScratch* scratch,
                                      SnapshotInfo* info = nullptr) const {
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    SnapshotCountsInto(scratch, nullptr, info);
    TopKByCountInto(scratch->counts, k, &scratch->ranked);
    if (hot) om_.query_topk->Record(obs::NowNanos() - t0);
    return scratch->ranked;
  }

  /// Allocating convenience wrapper around TopKInto.
  std::vector<NodeId> TopK(std::size_t k,
                           SnapshotInfo* info = nullptr) const {
    ReadScratch scratch;
    TopKInto(k, &scratch, info);
    return std::move(scratch.ranked);
  }

  /// Normalized snapshot score of one node (rank-side visit frequency:
  /// PageRank visits, SALSA authority visits). Lock-free and
  /// allocation-free.
  double Score(NodeId v, SnapshotInfo* info = nullptr) const {
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    int64_t count = 0;
    int64_t total = 0;
    const uint64_t epoch = counts_.ReadOne(v, &count, &total);
    if (info != nullptr) *info = SnapshotInfo{epoch, epoch};
    if (hot) om_.query_score->Record(obs::NowNanos() - t0);
    return total == 0 ? 0.0
                      : static_cast<double>(count) /
                            static_cast<double>(total);
  }

  /// The dense walk accumulator a personalized read runs on (each
  /// serving worker owns one and reuses it across requests).
  using PersonalizedScratch = BasicWalkScratch<Steps>;


  /// Personalized top-k (Algorithm 1 stitched walk, ranked by the rank
  /// side: authority for SALSA), served from the row tables as of the
  /// current publish and accumulated into the caller's `scratch`.
  /// Runs concurrently with ingestion: the view mutex is held only
  /// across the pin and the unpin, never across the walk, so readers
  /// never stall the writer and vice versa. The whole walk observes one
  /// epoch (`info`: min_epoch == max_epoch).
  /// `options.deadline` is polled inside the walk (cooperative
  /// cancellation), so an expired request returns DeadlineExceeded
  /// instead of burning walk budget; `options.max_fetches` remains the
  /// fetch-budget fault hook.
  Status PersonalizedTopKInto(NodeId seed, std::size_t k, uint64_t length,
                              bool exclude_friends, uint64_t rng_seed,
                              const WalkerOptions& options,
                              PersonalizedScratch* scratch,
                              std::vector<ScoredNode>* ranked,
                              PersonalizedWalkResult* walk_stats = nullptr,
                              SnapshotInfo* info = nullptr) {
    // Fail fast before pinning: a request that is already dead must
    // cost the service nothing.
    if (options.deadline.expired()) {
      return Status::DeadlineExceeded("deadline expired before walk start");
    }
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    if (hot) {
      om_.snapshot_pins->Add(
          1, ShardOfNode(seed, static_cast<uint32_t>(engine_->num_shards())));
    }
    const PublishPins::Pin pin = Pin();
    if (info != nullptr) {
      info->min_epoch = pin.epoch;
      info->max_epoch = pin.epoch;
    }
    const FrozenSegments segments = SegmentsAt(pin);
    const FrozenAdjacency graph = AdjacencyAt(pin);
    const BasicPersonalizedWalker<Steps, FrozenSegments, FrozenAdjacency>
        walker(&segments, &graph, options);
    const Status status =
        walker.TopKInto(seed, k, length, exclude_friends, rng_seed, scratch,
                        ranked, walk_stats);
    Unpin(pin);
    if (hot) om_.query_personalized->Record(obs::NowNanos() - t0);
    return status;
  }

  /// PersonalizedTopKInto without a deadline, on this thread's own
  /// scratch (a fresh one per call would cost a page-faulting
  /// O(num_nodes) allocation per query).
  Status PersonalizedTopK(NodeId seed, std::size_t k, uint64_t length,
                          bool exclude_friends, uint64_t rng_seed,
                          std::vector<ScoredNode>* ranked,
                          PersonalizedWalkResult* walk_stats = nullptr,
                          SnapshotInfo* info = nullptr) {
    thread_local PersonalizedScratch scratch;
    return PersonalizedTopKInto(seed, k, length, exclude_friends, rng_seed,
                                WalkerOptions(), &scratch, ranked,
                                walk_stats, info);
  }

  /// A reader's hold on the current publish: the row tables as of its
  /// seq stay readable, and nothing it can reach is freed, until
  /// Unpin(). Each personalized read pins around its walk.
  PublishPins::Pin Pin() {
    std::lock_guard<std::mutex> lock(view_mu_);
    const PublishPins::Pin pin = pins_.Acquire();
    FASTPPR_CHECK_MSG(pin.seq != 0, "no published snapshot to serve from");
    return pin;
  }
  void Unpin(const PublishPins::Pin& pin) {
    std::lock_guard<std::mutex> lock(view_mu_);
    pins_.Release(pin);
  }

  /// The segments and the adjacency as `pin` sees them.
  FrozenSegments SegmentsAt(const PublishPins::Pin& pin) const {
    return FrozenSegments(&segments_, pin.seq, walks_per_node_, spn_,
                          epsilon_);
  }
  FrozenAdjacency AdjacencyAt(const PublishPins::Pin& pin) const {
    return FrozenAdjacency(&out_, Steps::kSides > 1 ? &in_ : nullptr,
                           pin.seq);
  }
  /// The row tables (test hooks: version, retire and pool byte counts).
  const VersionedRows& segment_table() const { return segments_; }
  const VersionedRows& out_table() const { return out_; }
  const VersionedRows& in_table() const { return in_; }

  /// Epoch of the current publish — the result cache's key component.
  /// Read under the view mutex, so it is exactly the epoch a
  /// PersonalizedTopK pinning "now" would serve (modulo a concurrent
  /// flip, which only turns a would-be hit into a miss or a same-epoch
  /// insert — never a stale hit).
  uint64_t frozen_epoch() const {
    std::lock_guard<std::mutex> lock(view_mu_);
    return pins_.current().epoch;
  }

 private:
  /// The engine's window-boundary callback (BoundarySink), on its
  /// pipeline thread.
  void OnWindowBoundary(const Ctx& ctx) override {
    PublishBoundary(ctx, /*full=*/false);
  }

  /// One boundary's publish: the seqlock count flip, then a new version
  /// of every row the window's record names at the next publish seq,
  /// then the pin flip. Versions replaced by earlier publishes whose
  /// readers have all unpinned are freed first. `full` (the
  /// constructor's publish) writes every row.
  void PublishBoundary(const Ctx& ctx, bool full) {
    PublishCounts(ctx);
    // Advance the published epoch BEFORE the frozen flip: a reader that
    // pins a view must never observe its epoch ahead of
    // published_epoch() (the staleness invariant the tests assert).
    published_epoch_.store(ctx.epoch, std::memory_order_release);
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    uint64_t oldest = 0;
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      oldest = pins_.Oldest();
    }
    segments_.Reclaim(oldest);
    out_.Reclaim(oldest);
    in_.Reclaim(oldest);
    const uint64_t seq = ++seq_;
    const uint64_t graph_epoch = ctx.graph->epoch();
    PublishVolume volume;
    WriteSegments(ctx, full, seq, &volume);
    WriteAdjacency(ctx, full, seq, &volume);
    // The single-writer contract, checked like the engine's repair
    // phases: the boundary graph must not have moved while we copied
    // from it (the caller's next mutation waits for this boundary).
    FASTPPR_CHECK_MSG(ctx.graph->epoch() == graph_epoch,
                      "graph mutated during a snapshot publish");
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      pins_.Advance(PublishPins::Pin{seq, ctx.epoch});
      volume_.Accumulate(volume);
    }
    if (hot) {
      (full ? om_.frozen_publishes_full : om_.frozen_publishes_delta)
          ->Add(1);
      SetRowLedger();
      const uint64_t t1 = obs::NowNanos();
      om_.publish_phase->Record(t1 - t0);
      engine_->phase_tracer()->Record(engine_->publish_track(),
                                      obs::Phase::kPublish, ctx.epoch, t0,
                                      t1);
    }
  }

  /// The row tables' stripes of the memory ledger, after the shards'
  /// (in the EngineMetrics order: segments, out-adjacency,
  /// in-adjacency).
  void SetRowLedger() {
    const VersionedRows* tables[] = {&segments_, &out_, &in_};
    static_assert(std::size(tables) == obs::EngineMetrics::kRowTables);
    const std::size_t first = engine_->num_shards();
    for (std::size_t t = 0; t < std::size(tables); ++t) {
      om_.pool_live_bytes->Set(tables[t]->pool().live_bytes(), first + t);
      om_.pool_held_bytes->Set(tables[t]->pool().held_bytes(), first + t);
    }
  }

  /// Publishes the merged seqlock count snapshot from the boundary
  /// context.
  void PublishCounts(const Ctx& ctx) {
    int64_t total = 0;
    for (const Engine* shard : ctx.shards) total += shard->RankingTotal();
    counts_.Publish(
        engine_->num_nodes(),
        [&ctx](std::size_t v) {
          int64_t count = 0;
          for (const Engine* shard : ctx.shards) {
            count += shard->RankingCount(static_cast<NodeId>(v));
          }
          return count;
        },
        total, ctx.epoch);
    if (engine_->metrics_enabled()) om_.count_publishes->Add(1);
  }

  /// Writes the segments each shard's repair plan lists (or, on `full`,
  /// all its owned segments) into the global segment table. Every shard
  /// repairs only its own walks, so the plans name disjoint rows.
  void WriteSegments(const Ctx& ctx, bool full, uint64_t seq,
                     PublishVolume* volume) {
    const auto S = static_cast<uint32_t>(ctx.shards.size());
    for (uint32_t s = 0; s < S; ++s) {
      const auto& store = ctx.shards[s]->walk_store();
      const auto write = [&](uint64_t seg) {
        const auto words = store.SegmentWords(seg);
        return segments_.Write(seg, seq, words.size(), [&](std::size_t i) {
          return static_cast<NodeId>(slab::Hi(words[i]));
        });
      };
      if (full) {
        for (NodeId u = 0; u < engine_->num_nodes(); ++u) {
          if (ShardOfNode(u, S) != s) continue;
          for (std::size_t k = 0; k < spn_; ++k) write(u * spn_ + k);
        }
        continue;
      }
      uint64_t repaired = 0;
      store.ForEachRepairedSegment([&](uint64_t seg) {
        volume->presented_bytes +=
            sizeof(uint64_t) +
            store.SegmentWords(seg).size() * sizeof(uint64_t);
        volume->bytes_delta += write(seg);
        ++repaired;
      });
      if (engine_->metrics_enabled()) om_.segments_dirtied->Add(repaired, s);
    }
    if (!full) ++volume->publishes_delta;
  }

  /// Writes the adjacency rows the window's applied edges touched (or,
  /// on `full`, every row): edge (u, v) dirties u's out-row and, when
  /// the in table exists, v's in-row. The rows are named by the applied
  /// prefix, not the net delta, and must be: a delete and re-insert of
  /// one edge nets to nothing, yet RemoveEdge back-fills the hole with
  /// the row's last slot and the insert appends at the tail, so both
  /// rows change order. Frozen walks sample by slot index, so skipping
  /// them would make a frozen walk draw other neighbours than a live
  /// walk at the same epoch.
  void WriteAdjacency(const Ctx& ctx, bool full, uint64_t seq,
                      PublishVolume* volume) {
    const DiGraph& g = *ctx.graph;
    const bool in_side = Steps::kSides > 1;
    const auto write = [&](VersionedRows* rows, NodeId v,
                           std::span<const NodeId> ids) {
      return rows->Write(v, seq, ids.size(),
                         [&](std::size_t i) { return ids[i]; });
    };
    if (full) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        write(&out_, v, g.OutNeighbors(v));
        if (in_side) write(&in_, v, g.InNeighbors(v));
      }
      return;
    }
    for (const EdgeEvent& ev : ctx.applied) {
      const Edge& e = ev.edge;
      volume->presented_bytes +=
          sizeof(uint64_t) + g.OutDegree(e.src) * sizeof(NodeId);
      volume->bytes_delta += write(&out_, e.src, g.OutNeighbors(e.src));
      if (in_side) {
        volume->presented_bytes +=
            sizeof(uint64_t) + g.InDegree(e.dst) * sizeof(NodeId);
        volume->bytes_delta += write(&in_, e.dst, g.InNeighbors(e.dst));
      }
    }
    volume->publishes_delta += in_side ? 2 : 1;
  }

  ShardedEngine<Engine>* engine_;
  /// Cached metric handles (obs/engine_metrics.h); owned by the
  /// engine's registry, which outlives the service.
  obs::EngineMetrics om_;
  std::size_t walks_per_node_ = 0;
  double epsilon_ = 0.0;
  std::size_t spn_;  ///< segments per node
  SnapshotBuffer counts_;  ///< merged rank-side counts
  std::mutex window_mu_;
  std::atomic<uint64_t> published_epoch_{0};

  /// Personalized-read state. `view_mu_` guards the pins and the
  /// publish volume; every pin, unpin and flip takes it. The tables and
  /// `seq_` are written only by the one publishing thread (the pipeline
  /// thread, or the constructor with the pipeline drained).
  mutable std::mutex view_mu_;
  PublishPins pins_;
  PublishVolume volume_;
  uint64_t seq_ = 0;
  VersionedRows segments_;  ///< row u * spn + k, every shard's segments
  VersionedRows out_;       ///< out-adjacency, row v
  VersionedRows in_;        ///< in-adjacency (SALSA only; else no rows)
};

}  // namespace fastppr

#endif  // FASTPPR_ENGINE_QUERY_SERVICE_H_
