#ifndef FASTPPR_ENGINE_QUERY_SERVICE_H_
#define FASTPPR_ENGINE_QUERY_SERVICE_H_

// Concurrent serving layer over a ShardedEngine (see DESIGN.md
// sections 4, 6 and 11).
//
// Ranking reads (TopK / Score) are served from epoch-stamped visit-count
// snapshots, double-buffered per shard behind a seqlock: the boundary
// thread publishes into the inactive buffer and flips a sequence counter
// (release); readers validate the counter around their (relaxed, atomic)
// loads and retry on a concurrent flip. Readers therefore never block
// ingestion and take no lock; ingestion's hot path (the per-event
// repairs) never synchronizes with readers at all — only the publish at
// each window boundary touches the shared buffers.
//
// Personalized reads (PersonalizedTopK) are served from *frozen
// segment-snapshot views* (store/segment_snapshot.h): structurally
// shared immutable copies of each shard's walk segments plus the
// adjacency, flipped as one pointer table under the view mutex. A
// reader pins the whole table with one shared_ptr copy (mutex held only
// across the pointer copy, never across a walk) and stitches its walk
// with plain loads. Each publish allocates only the window's delta;
// clean chunks are shared with the previous view and freed by their
// refcounts when the last pin drops.
//
// Publish pipelining: the service implements the engine's BoundarySink,
// so snapshot publishing is driven by window-boundary callbacks on the
// engine's pipeline thread instead of the Ingest caller. The callback
// captures the boundary-frozen state (counts + delta payloads) at every
// boundary and hands assembly to a dedicated PUBLISHER thread — publish
// of window k-1 overlaps repair of window k and ingest of window k+1.
//
// Consistency model:
//  * Merged count reads: every per-shard read is torn-free and stamped
//    with the ingestion epoch (windows applied) it was published at; a
//    merged read overlapping a publish may combine shards from two
//    *adjacent* epochs (reported via SnapshotInfo).
//  * Personalized reads: the segment views and the adjacency view are
//    flipped together, so one walk observes ONE epoch throughout
//    (SnapshotInfo reports min_epoch == max_epoch). Reads lag live
//    ingestion by at most the pipeline depth; Quiesce() is the
//    freshness barrier.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "fastppr/core/ppr_walker.h"
#include "fastppr/core/ranking.h"
#include "fastppr/core/salsa_walker.h"
#include "fastppr/engine/ingest_pipeline.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/types.h"
#include "fastppr/obs/engine_metrics.h"
#include "fastppr/obs/latency_histogram.h"
#include "fastppr/store/segment_snapshot.h"
#include "fastppr/store/shared_snapshot.h"
#include "fastppr/util/shard.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Which ingestion epochs a read combined. min_epoch == max_epoch unless
/// a merged count read overlapped a publish (then they differ by at most
/// the number of windows published during the read). Personalized reads
/// are single-epoch by construction.
struct SnapshotInfo {
  uint64_t min_epoch = 0;
  uint64_t max_epoch = 0;
};

/// Caller-owned scratch for allocation-free steady-state merged reads
/// (one ReadScratch per reader thread; reused across queries).
struct ReadScratch {
  std::vector<int64_t> counts;     ///< merged per-node counts
  std::vector<int64_t> shard_tmp;  ///< one shard's seqlock copy
  std::vector<NodeId> ranked;      ///< TopKInto output
};

/// One shard's double-buffered, epoch-stamped count snapshot (seqlock).
/// Single writer (the window-boundary thread), any number of lock-free
/// readers.
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

  /// Adds this shard's counts into `acc` and its total into `total`;
  /// returns the snapshot's epoch. Lock-free; a read is copied into
  /// `scratch` (caller-owned, resized here — at most one allocation per
  /// scratch lifetime, not one per shard per retry) and merged only
  /// after the sequence counter validates, so a concurrent publish costs
  /// a retry, never a torn merge.
  uint64_t AccumulateInto(std::vector<int64_t>* acc, int64_t* total,
                          std::vector<int64_t>* scratch) const {
    std::vector<int64_t>& tmp = *scratch;
    tmp.resize(acc->size());
    for (;;) {
      const uint64_t s1 = seq_.load(std::memory_order_acquire);
      const Buf& b = bufs_[s1 & 1];
      for (std::size_t v = 0; v < tmp.size(); ++v) {
        tmp[v] = b.counts[v].load(std::memory_order_relaxed);
      }
      const int64_t t = b.total.load(std::memory_order_relaxed);
      const uint64_t epoch = b.epoch.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) {
        for (std::size_t v = 0; v < tmp.size(); ++v) {
          (*acc)[v] += tmp[v];
        }
        *total += t;
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

/// Serving front door: ingest windows through Ingest(), read rankings
/// concurrently through TopK()/Score(), run personalized queries
/// concurrently through PersonalizedTopK(). `Engine` is
/// IncrementalPageRank (TopK/Score rank by PageRank visit counts,
/// PersonalizedTopK is Algorithm 1) or IncrementalSalsa (authority
/// counts / personalized SALSA).
///
/// Single-service contract: a QueryService owns its engine's snapshot
/// delta feeds (dirty segments, applied edges) and its window-boundary
/// sink; attach at most one service per engine, and route mutations
/// through Ingest() — callers that mutate the engine directly must call
/// Publish() (full snapshot rebuild) before the next read.
template <typename Engine>
class QueryService : private ShardedEngine<Engine>::BoundarySink {
  static constexpr bool kIsSalsa =
      requires(const Engine& e) { e.AuthorityEstimate(NodeId{0}); };
  using Ctx = typename ShardedEngine<Engine>::BoundaryContext;
  /// Boundary→publisher queue depth: how many captured-but-unassembled
  /// windows may stack up before window boundaries backpressure on the
  /// publisher.
  static constexpr std::size_t kPublishQueueCap = 4;

 public:
  /// Per-query walk statistics type (differs between the two engines).
  using WalkStats =
      std::conditional_t<kIsSalsa, SalsaWalkResult, PersonalizedWalkResult>;

  explicit QueryService(ShardedEngine<Engine>* engine)
      : engine_(engine), adj_builder_(/*capture_in=*/kIsSalsa) {
    FASTPPR_CHECK(engine_ != nullptr);
    om_ = engine_->metric_handles();
    engine_->EnableAppliedEdgeTracking();
    for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
      engine_->shard(s).mutable_walk_store()->set_dirty_tracking(true);
    }
    const auto& store = engine_->shard(0).walk_store();
    walks_per_node_ = store.walks_per_node();
    epsilon_ = store.epsilon();
    snapshots_ = std::vector<SnapshotBuffer>(engine_->num_shards());
    for (SnapshotBuffer& s : snapshots_) s.Init(engine_->num_nodes());
    // The dense global->local segment map (immutable for the service's
    // lifetime; shared by the per-shard builders and every reader).
    ownership_ = engine_->MakeSegmentOwnership();
    seg_builders_.reserve(engine_->num_shards());
    for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
      seg_builders_.emplace_back(ownership_, s);
    }
    publisher_ = std::thread([this] { PublisherLoop(); });
    engine_->SetBoundarySink(this);
    {
      std::lock_guard<std::mutex> lock(window_mu_);
      const Ctx ctx = engine_->QuiescentBoundaryContext();
      PublishBoundary(ctx, /*full=*/true);
    }
    // The ctor returns with a published view in place (readers CHECK
    // one exists).
    WaitPublisherIdle();
  }

  /// The engine outlives the service: detach the boundary sink and hand
  /// the delta feeds back so it stops paying for a serving layer that
  /// no longer exists.
  ~QueryService() override {
    Quiesce();
    engine_->SetBoundarySink(nullptr);
    publish_q_.Close();
    if (publisher_.joinable()) publisher_.join();
    engine_->DisableAppliedEdgeTracking();
    for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
      auto* store = engine_->shard(s).mutable_walk_store();
      store->set_dirty_tracking(false);
      store->ClearDirtySegments();
    }
  }

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

  /// Re-publishes snapshots of the engine's current state (for callers
  /// that mutated the engine directly — the delta feeds may have missed
  /// those mutations, so the frozen views are fully rebuilt). Blocks
  /// until the rebuilt view is live.
  void Publish() {
    std::lock_guard<std::mutex> lock(window_mu_);
    const Ctx ctx = engine_->QuiescentBoundaryContext();
    PublishBoundary(ctx, /*full=*/true);
    WaitPublisherIdle();
  }

  /// The freshness barrier: blocks until every window submitted through
  /// Ingest() is fully applied AND its snapshot publishes are live.
  /// (Differential tests compare states across engines at quiesced
  /// boundaries.)
  void Quiesce() {
    engine_->Drain();
    WaitPublisherIdle();
  }

  /// Epoch of the most recent window boundary's count publish (frozen
  /// views may trail by the publish queue depth).
  uint64_t published_epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// Aggregate structural-sharing publish accounting across every
  /// builder (all shards' segments + both adjacency sides). Read at a
  /// quiescent point (Quiesce()) for a consistent total;
  /// publish_delta_bytes() / presented_bytes is the
  /// publish_bytes_per_delta_byte contract bench_sharded enforces.
  snap::SharedPublishStats::Snapshot publish_volume() const {
    snap::SharedPublishStats::Snapshot total;
    for (const SegmentSnapshotBuilder& b : seg_builders_) {
      total.Accumulate(b.stats().Read());
    }
    total.Accumulate(adj_builder_.out_stats().Read());
    if (adj_builder_.capture_in()) {
      total.Accumulate(adj_builder_.in_stats().Read());
    }
    return total;
  }

  /// Memory accounting of the currently published frozen views (pins
  /// the view set briefly; safe concurrently with ingestion).
  /// `segment_rows_dense` sums every shard's owned rows — exactly one
  /// global table's worth across all shards; `segment_rows_global_model`
  /// is what the pre-dense layout carried (n * spn rows PER shard).
  struct FrozenViewStats {
    std::size_t segment_bytes = 0;           ///< all shards, current view
    std::size_t segment_row_table_bytes = 0;
    std::size_t segment_rows_dense = 0;
    std::size_t segment_rows_global_model = 0;
    std::size_t max_shard_segment_bytes = 0;
    std::size_t adjacency_bytes = 0;
  };
  FrozenViewStats FrozenStats() const {
    std::shared_ptr<const FrozenViewSet> pin;
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      pin = frozen_view_;
    }
    FrozenViewStats out;
    if (pin != nullptr) {
      const std::size_t spn = pin->ownership->segments_per_node();
      for (const auto& segs : pin->segments) {
        out.segment_bytes += segs->MemoryBytes();
        out.segment_row_table_bytes += segs->row_table_bytes();
        out.segment_rows_dense += segs->num_segments();
        out.segment_rows_global_model += engine_->num_nodes() * spn;
        out.max_shard_segment_bytes =
            std::max(out.max_shard_segment_bytes, segs->MemoryBytes());
      }
      if (pin->graph != nullptr) {
        out.adjacency_bytes = pin->graph->MemoryBytes();
      }
    }
    // Drop the pin under the view mutex (the unpin contract).
    std::lock_guard<std::mutex> lock(view_mu_);
    pin.reset();
    return out;
  }

  /// Merged per-node counts from the current snapshots into
  /// caller-owned scratch (allocation-free once the scratch is warm).
  /// Returns a reference to scratch->counts. Lock-free.
  const std::vector<int64_t>& SnapshotCountsInto(
      ReadScratch* scratch, int64_t* total = nullptr,
      SnapshotInfo* info = nullptr) const {
    scratch->counts.assign(engine_->num_nodes(), 0);
    int64_t t = 0;
    SnapshotInfo si;
    si.min_epoch = ~uint64_t{0};
    for (const SnapshotBuffer& snap : snapshots_) {
      const uint64_t e =
          snap.AccumulateInto(&scratch->counts, &t, &scratch->shard_tmp);
      si.min_epoch = std::min(si.min_epoch, e);
      si.max_epoch = std::max(si.max_epoch, e);
    }
    if (total != nullptr) *total = t;
    if (info != nullptr) *info = si;
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

  /// Normalized snapshot score of one node (PageRank visit frequency /
  /// SALSA authority frequency). Lock-free and allocation-free.
  double Score(NodeId v, SnapshotInfo* info = nullptr) const {
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    int64_t count = 0;
    int64_t total = 0;
    SnapshotInfo si;
    si.min_epoch = ~uint64_t{0};
    for (const SnapshotBuffer& snap : snapshots_) {
      int64_t c = 0;
      int64_t t = 0;
      const uint64_t e = snap.ReadOne(v, &c, &t);
      count += c;
      total += t;
      si.min_epoch = std::min(si.min_epoch, e);
      si.max_epoch = std::max(si.max_epoch, e);
    }
    if (info != nullptr) *info = si;
    if (hot) om_.query_score->Record(obs::NowNanos() - t0);
    return total == 0 ? 0.0
                      : static_cast<double>(count) /
                            static_cast<double>(total);
  }

  /// Personalized top-k (Algorithm 1 stitched walk; authority-ranked for
  /// SALSA), served from the frozen segment + adjacency views published
  /// at a window boundary. Runs concurrently with ingestion: the view
  /// mutex is held only across the shared_ptr pins, never across the
  /// walk, so readers never stall the writer and vice versa. The whole
  /// walk observes one epoch (`info`: min_epoch == max_epoch).
  Status PersonalizedTopK(NodeId seed, std::size_t k, uint64_t length,
                          bool exclude_friends, uint64_t rng_seed,
                          std::vector<ScoredNode>* ranked,
                          WalkStats* walk_stats = nullptr,
                          SnapshotInfo* info = nullptr) {
    return PersonalizedTopK(seed, k, length, exclude_friends, rng_seed,
                            WalkerOptions(), ranked, walk_stats, info);
  }

  /// PersonalizedTopK with explicit walker options — the serving tier's
  /// entry point: `options.deadline` is polled inside the walk
  /// accumulation loop (cooperative cancellation), so an expired
  /// request returns DeadlineExceeded instead of burning walk budget;
  /// `options.max_fetches` remains the fetch-budget fault hook.
  Status PersonalizedTopK(NodeId seed, std::size_t k, uint64_t length,
                          bool exclude_friends, uint64_t rng_seed,
                          const WalkerOptions& options,
                          std::vector<ScoredNode>* ranked,
                          WalkStats* walk_stats = nullptr,
                          SnapshotInfo* info = nullptr) {
    // Fail fast before pinning views: a request that is already dead
    // must cost the service nothing.
    if (options.deadline.expired()) {
      return Status::DeadlineExceeded("deadline expired before walk start");
    }
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    if (hot) om_.snapshot_pins->Add(1, engine_->shard_of(seed));
    std::shared_ptr<const FrozenViewSet> pin;
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      pin = frozen_view_;
    }
    FASTPPR_CHECK_MSG(pin != nullptr && pin->graph != nullptr,
                      "no published snapshot to serve from");
    if (info != nullptr) {
      // Audited, not assumed: min/max span the adjacency AND every
      // segment view, so the single-epoch contract's assertions in the
      // tests and bench actually bite if a publish ever flips them at
      // different epochs.
      info->min_epoch = pin->graph->epoch();
      info->max_epoch = pin->graph->epoch();
      for (const auto& segs : pin->segments) {
        info->min_epoch = std::min(info->min_epoch, segs->epoch());
        info->max_epoch = std::max(info->max_epoch, segs->epoch());
      }
    }
    const FrozenSegmentView view(&pin->segments, pin->ownership.get(),
                                 walks_per_node_, epsilon_);
    Status status;
    if constexpr (kIsSalsa) {
      BasicPersonalizedSalsaWalker<FrozenSegmentView, FrozenAdjacency>
          walker(&view, pin->graph.get(), options);
      status = walker.TopKAuthorities(seed, k, length, exclude_friends,
                                      rng_seed, ranked, walk_stats);
    } else {
      BasicPersonalizedPageRankWalker<FrozenSegmentView, FrozenAdjacency>
          walker(&view, pin->graph.get(), options);
      status = walker.TopK(seed, k, length, exclude_friends, rng_seed,
                           ranked, walk_stats);
    }
    // Drop the pin under the view mutex: the flip and the last unpin
    // stay mutually ordered, so the chunk refcounts a dropped view
    // releases (freeing unshared chunks) fall at deterministic points —
    // the memory tests rely on that, and readers pay one uncontended
    // lock per query for it.
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      pin.reset();
    }
    if (hot) om_.query_personalized->Record(obs::NowNanos() - t0);
    return status;
  }

  /// One request of a batched PersonalizedTopK execution: the inputs a
  /// caller fills plus the per-item outputs the batch run writes back.
  struct PersonalizedBatchQuery {
    // Inputs.
    NodeId seed = 0;
    std::size_t k = 10;
    uint64_t walk_length = 0;
    bool exclude_friends = true;
    uint64_t rng_seed = 0;
    WalkerOptions options;
    // Outputs.
    Status status = Status::OK();
    std::vector<ScoredNode> ranked;
    SnapshotInfo snapshot;
    uint64_t service_ns = 0;  ///< this item's walk+rank wall time
  };

  /// The reusable walker scratch batched execution shares across items
  /// (serve/batcher.h owns one per worker thread).
  using PersonalizedScratch =
      std::conditional_t<kIsSalsa, SalsaWalkScratch, PersonalizedWalkScratch>;

  /// Batched PersonalizedTopK: pins the frozen view ONCE for the whole
  /// batch — one shared_ptr copy and one audited SnapshotInfo instead of
  /// per-request pins — and accumulates every walk into `scratch`'s
  /// dense arrays. Each item keeps its own RNG seed, walk length and
  /// deadline, and the walk core + ranking are shared with the unbatched
  /// path, so every item's answer is bit-identical to an unbatched
  /// PersonalizedTopK at the same epoch (the differential test's
  /// contract). Item statuses are reported per item; the call itself
  /// cannot fail.
  void PersonalizedTopKInto(std::span<PersonalizedBatchQuery> batch,
                            PersonalizedScratch* scratch,
                            serve::ClockFn clock = &obs::NowNanos) {
    if (batch.empty()) return;
    const bool hot = engine_->metrics_enabled();
    std::shared_ptr<const FrozenViewSet> pin;
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      pin = frozen_view_;
    }
    FASTPPR_CHECK_MSG(pin != nullptr && pin->graph != nullptr,
                      "no published snapshot to serve from");
    SnapshotInfo si;
    si.min_epoch = pin->graph->epoch();
    si.max_epoch = pin->graph->epoch();
    for (const auto& segs : pin->segments) {
      si.min_epoch = std::min(si.min_epoch, segs->epoch());
      si.max_epoch = std::max(si.max_epoch, segs->epoch());
    }
    const FrozenSegmentView view(&pin->segments, pin->ownership.get(),
                                 walks_per_node_, epsilon_);
    for (PersonalizedBatchQuery& q : batch) {
      q.snapshot = si;
      const uint64_t t0 = clock();
      if (q.options.deadline.expired()) {
        q.status =
            Status::DeadlineExceeded("deadline expired before walk start");
        q.service_ns = clock() - t0;
        continue;
      }
      if constexpr (kIsSalsa) {
        BasicPersonalizedSalsaWalker<FrozenSegmentView, FrozenAdjacency>
            walker(&view, pin->graph.get(), q.options);
        q.status = walker.TopKAuthoritiesInto(q.seed, q.k, q.walk_length,
                                              q.exclude_friends, q.rng_seed,
                                              scratch, &q.ranked);
      } else {
        BasicPersonalizedPageRankWalker<FrozenSegmentView, FrozenAdjacency>
            walker(&view, pin->graph.get(), q.options);
        q.status = walker.TopKInto(q.seed, q.k, q.walk_length,
                                   q.exclude_friends, q.rng_seed, scratch,
                                   &q.ranked);
      }
      q.service_ns = clock() - t0;
      if (hot) om_.query_personalized->Record(q.service_ns);
    }
    // One pin for the whole batch: account it to the first item's shard.
    if (hot) om_.snapshot_pins->Add(1, engine_->shard_of(batch[0].seed));
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      pin.reset();
    }
  }

  /// Epoch of the currently published frozen view — the result cache's
  /// key component. Read under the pin mutex, so it is exactly the epoch
  /// a PersonalizedTopK pinning "now" would serve (modulo a concurrent
  /// rotation, which only turns a would-be hit into a miss or a
  /// same-epoch insert — never a stale hit).
  uint64_t frozen_epoch() const {
    std::lock_guard<std::mutex> lock(view_mu_);
    return frozen_view_ != nullptr && frozen_view_->graph != nullptr
               ? frozen_view_->graph->epoch()
               : 0;
  }

 private:
  /// One published view set: per-shard frozen segments (dense owned
  /// rows), the shared global->local map, plus the frozen adjacency —
  /// built once per frozen publish and flipped as a single pointer — so
  /// a reader's pin/unpin is one shared_ptr copy, not S+2 refcount
  /// bumps inside the contended critical section.
  struct FrozenViewSet {
    std::vector<std::shared_ptr<const FrozenSegments>> segments;
    std::shared_ptr<const SegmentOwnership> ownership;
    std::shared_ptr<const FrozenAdjacency> graph;
  };

  /// One window's captured-but-unassembled publish payload, moved from
  /// the boundary thread to the publisher thread.
  struct PublishJob {
    uint64_t epoch = 0;
    bool full = false;
    std::vector<snap::CapturedRows<uint64_t>> segments;
    AdjacencyCapture adjacency;
  };

  /// StoreView over the pinned frozen copies, routing each node's
  /// segments to its owning shard's dense table through the shared
  /// (immutable) SegmentOwnership map.
  class FrozenSegmentView {
   public:
    FrozenSegmentView(
        const std::vector<std::shared_ptr<const FrozenSegments>>* shards,
        const SegmentOwnership* ownership, std::size_t walks_per_node,
        double epsilon)
        : shards_(shards),
          ownership_(ownership),
          walks_per_node_(walks_per_node),
          epsilon_(epsilon) {}

    std::size_t walks_per_node() const { return walks_per_node_; }
    double epsilon() const { return epsilon_; }
    FrozenSegments::SegmentRef GetSegment(NodeId u, std::size_t k) const {
      return (*shards_)[ownership_->OwnerOf(u)]->Segment(
          ownership_->LocalRow(u, k));
    }

   private:
    const std::vector<std::shared_ptr<const FrozenSegments>>* shards_;
    const SegmentOwnership* ownership_;
    std::size_t walks_per_node_;
    double epsilon_;
  };

  /// The engine's window-boundary callback (BoundarySink), on its
  /// pipeline thread.
  void OnWindowBoundary(const Ctx& ctx) override {
    PublishBoundary(ctx, /*full=*/false);
  }

  /// One boundary's publish work on the boundary thread: seqlock count
  /// flips, then the frozen-view delta capture, handed to the publisher
  /// thread.
  void PublishBoundary(const Ctx& ctx, bool full) {
    PublishCounts(ctx);
    // Advance the published epoch BEFORE the frozen flip: a reader that
    // pins a view must never observe its epoch ahead of
    // published_epoch() (the staleness invariant the tests assert).
    published_epoch_.store(ctx.epoch, std::memory_order_release);
    PublishJob job;
    job.epoch = ctx.epoch;
    job.full = full;
    CaptureJob(ctx, full, &job);
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      ++inflight_;
    }
    if (!publish_q_.Push(std::move(job))) {
      // Closed queue (service teardown) — the boundary is already past
      // the sink detach, so the job is dropped, not owed.
      std::lock_guard<std::mutex> lock(idle_mu_);
      --inflight_;
      idle_cv_.notify_all();
      return;
    }
    if (engine_->metrics_enabled()) {
      om_.pipeline_publish_queue_hw->Set(publish_q_.high_water());
    }
  }

  /// Publishes the seqlock count snapshots from the boundary context.
  void PublishCounts(const Ctx& ctx) {
    const std::size_t n = engine_->num_nodes();
    const std::size_t S = snapshots_.size();
    FASTPPR_CHECK_MSG(S == ctx.shards.size(),
                      "snapshot set no longer matches the engine");
    for (std::size_t s = 0; s < S; ++s) {
      const Engine& shard = *ctx.shards[s];
      snapshots_[s].Publish(
          n,
          [&shard](std::size_t v) {
            return shard.RankingCount(static_cast<NodeId>(v));
          },
          shard.RankingTotal(), ctx.epoch);
    }
    if (engine_->metrics_enabled()) om_.count_publishes->Add(1);
  }

  /// Boundary-thread half of a frozen publish: reads the
  /// boundary-frozen stores and graph into a self-contained job and
  /// clears the delta feeds. Everything live is read HERE; the
  /// assembly half touches only builder/publish state.
  void CaptureJob(const Ctx& ctx, bool full, PublishJob* job) {
    const bool hot = engine_->metrics_enabled();
    const uint64_t graph_epoch = ctx.graph->epoch();
    job->segments.resize(snapshots_.size());
    for (std::size_t s = 0; s < snapshots_.size(); ++s) {
      auto* store = ctx.shards[s]->mutable_walk_store();
      if (hot) {
        om_.segments_dirtied->Add(store->dirty_segments().size(), s);
      }
      seg_builders_[s].Capture(*store, store->dirty_segments(),
                               full || store->dirty_overflowed(),
                               &job->segments[s]);
      store->ClearDirtySegments();
    }
    adj_builder_.Capture(*ctx.graph, ctx.applied->entries(),
                         full || ctx.applied->overflowed(),
                         &job->adjacency);
    ctx.applied->Clear();
    // The single-writer contract, checked like the engine's repair
    // phases: the boundary graph must not have moved while we copied
    // from it (the caller's next mutation waits for this boundary).
    FASTPPR_CHECK_MSG(ctx.graph->epoch() == graph_epoch,
                      "graph mutated during a snapshot capture");
  }

  /// Publisher half: fold the capture into the shared chains and flip
  /// the view pointer. Runs on the publisher thread, overlapping the
  /// next windows' ingest and repair.
  void AssembleAndFlip(PublishJob&& job) {
    const bool hot = engine_->metrics_enabled();
    const uint64_t t0 = hot ? obs::NowNanos() : 0;
    auto fresh = std::make_shared<FrozenViewSet>();
    fresh->segments.resize(job.segments.size());
    for (std::size_t s = 0; s < job.segments.size(); ++s) {
      fresh->segments[s] =
          seg_builders_[s].Assemble(std::move(job.segments[s]), job.epoch);
    }
    fresh->ownership = ownership_;
    fresh->graph = adj_builder_.Assemble(std::move(job.adjacency),
                                         job.epoch);
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      frozen_view_ = std::move(fresh);
    }
    if (hot) {
      // "full" here means the caller forced a rebuild; per-shard
      // overflow-forced copies still count as delta publishes (the
      // decision was the delta path's).
      (job.full ? om_.frozen_publishes_full : om_.frozen_publishes_delta)
          ->Add(1);
      const uint64_t t1 = obs::NowNanos();
      om_.publish_phase->Record(t1 - t0);
      engine_->phase_tracer()->Record(engine_->publish_track(),
                                      obs::Phase::kPublish, job.epoch, t0,
                                      t1);
    }
  }

  void PublisherLoop() {
    PublishJob job;
    while (publish_q_.Pop(&job)) {
      AssembleAndFlip(std::move(job));
      {
        std::lock_guard<std::mutex> lock(idle_mu_);
        --inflight_;
      }
      idle_cv_.notify_all();
    }
  }

  void WaitPublisherIdle() {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [&] { return inflight_ == 0; });
  }

  ShardedEngine<Engine>* engine_;
  /// Cached metric handles (obs/engine_metrics.h); owned by the
  /// engine's registry, which outlives the service.
  obs::EngineMetrics om_;
  std::size_t walks_per_node_ = 0;
  double epsilon_ = 0.0;
  std::shared_ptr<const SegmentOwnership> ownership_;
  std::vector<SnapshotBuffer> snapshots_;
  std::mutex window_mu_;
  std::atomic<uint64_t> published_epoch_{0};

  /// Personalized-read state. `view_mu_` orders only pointer pins,
  /// unpins and flips; the builders are touched only by the boundary
  /// thread (Capture) and the publisher thread (Assemble), whose member
  /// footprints are disjoint.
  mutable std::mutex view_mu_;
  std::shared_ptr<const FrozenViewSet> frozen_view_;
  std::vector<SegmentSnapshotBuilder> seg_builders_;
  AdjacencySnapshotBuilder adj_builder_;

  /// Publisher-thread state. `inflight_` counts enqueued jobs not yet
  /// flipped, guarded by `idle_mu_`.
  pipe::BoundedQueue<PublishJob> publish_q_{kPublishQueueCap};
  std::thread publisher_;
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::size_t inflight_ = 0;
};

}  // namespace fastppr

#endif  // FASTPPR_ENGINE_QUERY_SERVICE_H_
