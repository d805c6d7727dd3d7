#ifndef FASTPPR_ENGINE_SHARDED_ENGINE_H_
#define FASTPPR_ENGINE_SHARDED_ENGINE_H_

// Node-partitioned parallel execution of the incremental Monte Carlo
// engines over ONE shared social graph (see DESIGN.md sections 4-5 and,
// for the pipelined execution model, section 11).
//
// The paper's deployment is inherently partitioned: walk segments live
// in a sharded PageRank Store beside a FlockDB-like social graph store.
// This header reproduces that shape in-process. Nodes are
// hash-partitioned into S shards (ShardOfNode); shard s runs an engine
// instance holding its own slab walk store (only the segments sourced
// at owned nodes) and its own RNG seeded ShardSeed(seed, s), and every
// shard reads the SAME DiGraph (graph/digraph.h) instead of a per-shard
// replica (which would cost S× adjacency memory and S× mutation work).
//
// Single-writer epoch contract: the engine owns ONE DiGraph and shares
// it with its shards, and each ingestion window is processed as two
// phases. In the ingest phase the calling thread, the graph's only
// writer, applies the window's events (stopping at the first invalid
// one); in the repair phase the pipeline thread builds the applied
// prefix's net delta (WindowDelta) once and every shard repairs its own
// walks in ONE parallel dispatch against the graph, now frozen. The
// caller Drain()s the previous window, whose repair and boundary sink
// are the graph's only other readers, before it mutates, so the two
// phases never overlap. The graph's mutation epoch (DiGraph::epoch) is
// recorded when the repair phase starts and FASTPPR_CHECKed unchanged
// when it ends, so a mutation under concurrent repairs aborts loudly
// instead of racing silently.
//
// Execution: ApplyEvents appends and syncs the window's WAL record
// (overlapping the previous window's repair), drains, mutates the
// graph, puts the applied prefix into the one in-flight window slot and
// returns the exact status. The pipeline thread repairs every shard
// through one ThreadPool dispatch and retires the window boundary (the
// boundary sink, upstream of snapshot publishing, reads the window's
// own record: its applied prefix, and each shard's repair plan). One
// mutex and one condition variable guard the slot: the pipeline thread
// waits on them for a window, Drain() for its retirement.
// windows_applied trails windows_submitted by at most one window;
// getters that read repair-side state Drain() first.
//
// Event routing is a *broadcast*, not a split: an arriving edge (u, v)
// reroutes stored walks that VISIT u (Proposition 2), and walks visiting
// u are sourced everywhere, so every shard must see every event. What is
// partitioned by ShardOfNode is the repair work itself — each shard's
// inverted index lists only its own walks' visits, so the coupling
// repairs of one window split S ways.
//
// Determinism contract: per-shard RNG streams depend only on (seed,
// shard_count), never on thread count or scheduling, and sampling is
// defined over the graph's canonical slot order — so results are
// bit-identical for any number of worker threads and whether or not the
// caller waits for each window, and a 1-shard engine consumes the
// identical stream as the flat engine (Mix64(0) == 0; the flat engine
// mutates and repairs each window in exactly the same order).

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/ranking.h"
#include "fastppr/engine/thread_pool.h"
#include "fastppr/obs/engine_metrics.h"
#include "fastppr/obs/latency_histogram.h"
#include "fastppr/obs/metrics.h"
#include "fastppr/obs/phase_tracer.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/types.h"
#include "fastppr/store/arena_io.h"
#include "fastppr/store/block_pool.h"
#include "fastppr/store/checkpoint.h"
#include "fastppr/store/wal.h"
#include "fastppr/util/check.h"
#include "fastppr/util/file_io.h"
#include "fastppr/util/shard.h"
#include "fastppr/util/status.h"

namespace fastppr {

struct ShardedOptions {
  /// Number of node shards (>= 1). Fixed for the engine's lifetime; the
  /// shard count is part of the determinism contract (changing it
  /// re-partitions the RNG streams).
  std::size_t num_shards = 1;
  /// Worker threads for parallel repair; 0 = min(num_shards,
  /// hardware_concurrency). Any value yields bit-identical results.
  std::size_t num_threads = 0;
};

/// What a Recover() call found and replayed (telemetry for logs, tests
/// and bench_durability).
struct RecoveryInfo {
  /// Windows already applied inside the checkpoint.
  uint64_t checkpoint_window = 0;
  /// WAL tail records replayed on top of the checkpoint.
  uint64_t replayed_windows = 0;
  uint64_t replayed_events = 0;
};

/// Durability configuration for ShardedEngine::EnableDurability.
struct DurabilityOptions {
  /// Directory holding checkpoint.fppr and wal.log (created if absent).
  std::string directory;
  /// Checkpoint every N applied windows (0 = only explicit
  /// Checkpoint() calls). The WAL is rotated at each checkpoint, so
  /// this bounds both replay length and log size.
  uint64_t checkpoint_interval_windows = 64;
};

/// S walk-store shards over one shared DiGraph, behind one
/// ApplyEvents front door. `Engine` is a BasicIncrementalEngine —
/// IncrementalPageRank or IncrementalSalsa — whose step policy decides
/// whether the window's delta carries its in side (kRepairsInEdges) and
/// which side's visits the RankingCount merge reads.
template <typename Engine>
class ShardedEngine {
 public:
  /// Everything a window-boundary callback may touch, passed by value
  /// so the callee NEVER calls back into the engine's (auto-draining)
  /// getters from the pipeline thread — that would self-deadlock.
  /// `shards`, `graph` and `applied` are frozen until the callback
  /// returns (the boundary runs strictly after the window's last repair
  /// joined and strictly before the next window's first mutation, which
  /// waits for it in Drain()). The window's record is `applied` plus
  /// each shard's repair plan (walk_store().ForEachRepairedSegment).
  struct BoundaryContext {
    uint64_t epoch = 0;  ///< windows applied INCLUDING this one
    std::span<const Engine* const> shards;
    const DiGraph* graph = nullptr;  ///< the boundary-frozen graph
    std::span<const EdgeEvent> applied;  ///< the window's applied prefix
  };

  /// Window-boundary hook (the publish stage's upstream): invoked once
  /// per applied window on the pipeline thread, always at a quiescent
  /// boundary.
  class BoundarySink {
   public:
    virtual ~BoundarySink() = default;
    virtual void OnWindowBoundary(const BoundaryContext& ctx) = 0;
  };

  ShardedEngine(std::size_t num_nodes, const MonteCarloOptions& opts,
                const ShardedOptions& sharding)
      : base_options_(opts),
        pool_(ResolveThreads(sharding)),
        graph_(std::make_shared<DiGraph>(num_nodes)) {
    Init(sharding.num_shards, /*for_recovery=*/false);
  }

  /// Bootstraps from `initial` through LoadInitialGraph, exactly as the
  /// flat engine does.
  ShardedEngine(const DiGraph& initial, const MonteCarloOptions& opts,
                const ShardedOptions& sharding)
      : base_options_(opts),
        pool_(ResolveThreads(sharding)),
        graph_(LoadInitialGraph(initial)) {
    Init(sharding.num_shards, /*for_recovery=*/false);
  }

  ~ShardedEngine() {
    {
      std::lock_guard<std::mutex> lock(slot_mu_);
      closing_ = true;
    }
    slot_cv_.notify_all();
    if (pipeline_.joinable()) pipeline_.join();
  }

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t num_threads() const { return pool_.num_threads(); }
  std::size_t num_nodes() const { return graph_->num_nodes(); }
  /// Live edge count; reflects every ApplyEvents that returned, even
  /// while its repair is still in flight.
  std::size_t num_edges() const { return graph_->num_edges(); }
  uint64_t arrivals() const {
    Drain();
    return shards_[0]->arrivals();
  }
  uint64_t removals() const {
    Drain();
    return shards_[0]->removals();
  }
  /// Ingestion windows fully applied (repairs included) so far — the
  /// snapshot epoch source. Drains the pipeline, so the value equals
  /// the windows submitted by every returned ApplyEvents call.
  uint64_t windows_applied() const {
    Drain();
    return windows_applied_.load(std::memory_order_relaxed);
  }

  const MonteCarloOptions& options() const { return base_options_; }

  Engine& shard(std::size_t s) {
    Drain();
    return *shards_[s];
  }
  const Engine& shard(std::size_t s) const {
    Drain();
    return *shards_[s];
  }

  /// The ONE shared graph: the single-writer caller mutates it and
  /// every shard's repairs read it.
  const DiGraph& graph() const { return *graph_; }

  /// Heap bytes of the shared graph. With per-shard replicas this would
  /// be paid num_shards() times; sharing collapses it to one copy — the
  /// number bench_sharded reports as the replica-elimination saving.
  std::size_t GraphMemoryBytes() const { return graph_->MemoryBytes(); }
  /// Bytes of graph copies kept for repair besides the one graph:
  /// always 0, since repairs read the graph itself between mutations.
  /// Kept for the benchmark's layer ledger (engine.replica_mb).
  std::size_t RepairReplicaBytes() const { return 0; }

  /// Installs (or clears, with nullptr) the window-boundary hook. The
  /// pipeline is drained first, so the sink misses no boundary and a
  /// cleared sink is never called again. One sink at a time: a second
  /// would silently detach the first, whose views would then go stale.
  void SetBoundarySink(BoundarySink* sink) {
    Drain();
    FASTPPR_CHECK_MSG(
        sink == nullptr || sink_.load(std::memory_order_relaxed) == nullptr,
        "a QueryService is already attached to this engine");
    sink_.store(sink, std::memory_order_release);
  }

  /// The drained boundary a sink starts from: the state every window so
  /// far produced, with no window record (`applied` is empty).
  BoundaryContext QuiescentBoundaryContext() {
    Drain();
    return Boundary(windows_applied_.load(std::memory_order_relaxed), {});
  }

  /// Blocks until every submitted window is fully applied (repairs run,
  /// boundary sink returned). Never needed for correctness by external
  /// callers — every getter that observes repair-side state drains
  /// implicitly.
  void Drain() const {
    const uint64_t target = windows_submitted_.load(std::memory_order_acquire);
    if (windows_applied_.load(std::memory_order_acquire) >= target) return;
    std::unique_lock<std::mutex> lock(slot_mu_);
    slot_cv_.wait(lock, [&] {
      return windows_applied_.load(std::memory_order_relaxed) >= target;
    });
  }

  /// Applies one ingestion window: the caller waits for the previous
  /// window's repair and boundary, runs this window's graph mutations
  /// and hands repair + publish to the pipeline thread. The returned
  /// Status is already exact — it is computed from the mutations. An
  /// invalid event stops the window there; the applied prefix is
  /// repaired in every shard before the window retires.
  ///
  /// With durability enabled the window's raw event span is appended to
  /// the WAL and fsync'd BEFORE anything is applied: log-ahead plus
  /// deterministic ingestion — ApplyWindowPrefix and the window coupling
  /// replay a logged span identically, rejected events included — is
  /// the whole recovery story. A WAL append or fsync error fails the
  /// window before any state changed (a failed fsync also cuts the
  /// window's record back out of the log), and the WAL is fail-stop:
  /// every later window fails the same way, before any state changed,
  /// until a successful Checkpoint() rotates to a fresh log, so no
  /// record ever lands behind a torn one and recovery replays exactly
  /// the acked windows. WAL records are numbered by windows SUBMITTED,
  /// so the epoch-aligned framing is untouched by the pipeline lag; a
  /// checkpoint drains the pipeline to a boundary. A periodic checkpoint
  /// that fails does not change the returned status (the window is
  /// applied and logged); it is counted in `checkpoint_failures` and
  /// retried after the next window. A checkpoint that failed in the WAL
  /// rotation leaves no open log, so the next window retries it before
  /// logging anything; if that retry fails too, it is counted and the
  /// window is refused with its error before any state changed.
  Status ApplyEvents(std::span<const EdgeEvent> events) {
    const uint64_t window = windows_submitted_.load(std::memory_order_relaxed);
    if (durable_) {
      if (!wal_.is_open()) {
        if (Status s = Checkpoint(); !s.ok()) {
          om_.checkpoint_failures->Add(1);
          return s;
        }
      }
      const bool hot = metrics_enabled();
      const uint64_t bytes_before = wal_.bytes_written();
      FASTPPR_RETURN_IF_ERROR(wal_.AppendBatch(window, events));
      if (hot) {
        om_.wal_records->Add(1);
        om_.wal_bytes->Add(wal_.bytes_written() - bytes_before);
      }
      const uint64_t t0 = hot ? obs::NowNanos() : 0;
      FASTPPR_RETURN_IF_ERROR(wal_.Sync());
      if (hot) {
        const uint64_t t1 = obs::NowNanos();
        om_.wal_fsyncs->Add(1);
        om_.wal_fsync->Record(t1 - t0);
        tracer_.Record(writer_track(), obs::Phase::kFsync, window, t0, t1);
      }
    }
    const Status result = ApplyWindow(events);
    if (durable_ && durability_.checkpoint_interval_windows > 0 &&
        windows_submitted_.load(std::memory_order_relaxed) -
                last_checkpoint_window_ >=
            durability_.checkpoint_interval_windows) {
      // The window is applied and logged either way: the previous
      // checkpoint and the unrotated WAL, or the new checkpoint when
      // only the rotation failed, still cover it, so a failure is not
      // this window's. Count it; the next window retries.
      if (!Checkpoint().ok()) om_.checkpoint_failures->Add(1);
    }
    return result;
  }

  Status ApplyEvent(const EdgeEvent& event) {
    return ApplyEvents(std::span<const EdgeEvent>(&event, 1));
  }

  /// Merged per-node ranking counts: the rank side's stored-walk visits
  /// (PageRank: all visits; SALSA: authority-side visits). Exactly the
  /// flat engine's counts at any shard count.
  std::vector<int64_t> MergedRankingCounts() const {
    Drain();
    std::vector<int64_t> acc(num_nodes(), 0);
    for (const auto& shard : shards_) {
      shard->AccumulateRankingCounts(&acc);
    }
    return acc;
  }

  int64_t MergedRankingTotal() const {
    Drain();
    int64_t total = 0;
    for (const auto& shard : shards_) total += shard->RankingTotal();
    return total;
  }

  /// Nodes with the k highest merged ranking counts (the shared
  /// TopKByCount ranking, so ordering matches the flat engines' TopK).
  std::vector<NodeId> TopK(std::size_t k) const {
    return TopKByCount(MergedRankingCounts(), k);
  }

  /// Sum of all shards' repair stats over the engine lifetime.
  WalkUpdateStats lifetime_stats() const {
    Drain();
    WalkUpdateStats out;
    for (const auto& shard : shards_) {
      out.Accumulate(shard->lifetime_stats());
    }
    return out;
  }
  /// Test hook: audits the shared graph and every shard's store.
  void CheckConsistency() const {
    Drain();
    graph_->CheckConsistency();
    for (const auto& shard : shards_) shard->CheckConsistency();
  }

  // --- observability (DESIGN.md §9) ----------------------------------

  /// The engine's metrics registry (always present). Counters and
  /// histograms are listed in obs/engine_metrics.h.
  obs::MetricsRegistry* metrics() { return metrics_registry_.get(); }
  /// Raw metric handles for attached hot paths (QueryService caches a
  /// copy; valid for the registry's lifetime).
  const obs::EngineMetrics& metric_handles() const { return om_; }
  /// Phase timeline: track s < num_shards() carries shard s's repair
  /// spans; writer_track() the caller's ingest/fsync spans;
  /// publish_track() the frozen-view publish spans.
  obs::PhaseTracer* phase_tracer() { return &tracer_; }
  std::size_t writer_track() const { return shards_.size(); }
  std::size_t publish_track() const { return shards_.size() + 1; }

  /// Turns the instrumentation's clock reads and atomics on/off at
  /// runtime (on by default). The cold path does no timing at all —
  /// bench_observability measures hot-vs-cold ingest to enforce the
  /// <= 2% overhead contract. Metrics are observability state, never
  /// serialized: SerializeState() is bit-identical either way.
  void SetMetricsEnabled(bool on) {
    metrics_hot_.store(on, std::memory_order_relaxed);
  }
  bool metrics_enabled() const {
    return metrics_hot_.load(std::memory_order_relaxed);
  }

  // --- durability (DESIGN.md §8) ------------------------------------

  /// Starts logging + checkpointing into `opts.directory`: writes a
  /// full checkpoint of the current state, then opens a fresh WAL, so
  /// the directory is immediately recoverable. Must be called at a
  /// window boundary (i.e. not from inside ApplyEvents — trivially true
  /// for the single-writer caller); the pipeline is drained to one.
  Status EnableDurability(const DurabilityOptions& opts) {
    if (opts.directory.empty()) {
      return Status::InvalidArgument("durability directory is empty");
    }
    if (wal_.is_open()) {
      FASTPPR_RETURN_IF_ERROR(wal_.Close());
    }
    FASTPPR_RETURN_IF_ERROR(EnsureDirectory(opts.directory));
    durability_ = opts;
    durable_ = true;
    const Status s = Checkpoint();
    if (!s.ok()) durable_ = false;
    return s;
  }

  /// Streams the whole engine from its arenas into the checkpoint file
  /// (tmp + fsync + atomic rename: the checkpoint named on disk is
  /// always complete; no copy of the body is built in memory), then
  /// rotates the WAL — records below the checkpoint's window are dead,
  /// so the log restarts empty. Recovery cost is therefore bounded by
  /// checkpoint_interval_windows regardless of uptime. On an error the
  /// previous checkpoint and the WAL stay as they were. Drains the
  /// pipeline first: a checkpoint is always taken at an epoch boundary
  /// with no repair or publish work in flight.
  Status Checkpoint() {
    if (!durable_) {
      return Status::InvalidArgument("durability is not enabled");
    }
    Drain();
    FASTPPR_RETURN_IF_ERROR(WriteFramedFile(
        CheckpointPath(), kCheckpointMagic, [this](FramedFileSink* body) {
          BuildManifest().SaveTo(body);
          SerializeTo(body);
        }));
    if (wal_.is_open()) {
      FASTPPR_RETURN_IF_ERROR(wal_.Close());
    }
    FASTPPR_RETURN_IF_ERROR(
        WalWriter::Create(WalPath(), BuildManifest(), &wal_));
    last_checkpoint_window_ = windows_applied_.load(std::memory_order_relaxed);
    return Status::OK();
  }

  /// The bit-identity oracle: the engine's complete durable state as
  /// one byte vector (exactly the body Checkpoint() streams). Two
  /// engines with equal SerializeState() have identical graph slabs,
  /// walk slabs, RNG streams, counters and ledgers — every future
  /// ApplyEvents result is identical. Drains the pipeline (the oracle
  /// is defined at window boundaries).
  std::vector<uint8_t> SerializeState() const {
    Drain();
    ArenaWriter w;
    BuildManifest().SaveTo(&w);
    SerializeTo(&w);
    return w.TakeBuffer();
  }

  /// Rebuilds an engine from a durability directory: loads the
  /// checkpoint, then replays the WAL tail through the normal apply
  /// path. Returns
  ///   * OK        — *out is bit-identical to the engine that wrote the
  ///                 files (possibly one window ahead of a crashed
  ///                 writer whose last logged window never finished
  ///                 applying — log-ahead means logged == applied),
  ///   * NotFound  — no durable state (neither file exists),
  ///   * Corruption— a checksum/frame violation (e.g. a flipped bit),
  ///   * DataLoss  — files are individually valid but a piece is
  ///                 missing (one file gone, or the WAL skips windows).
  /// Read-only: the directory is untouched, so Recover is idempotent
  /// and the result is not yet durable — call EnableDurability on the
  /// recovered engine to resume logging. The returned engine is
  /// drained: replayed windows are fully applied.
  static Status Recover(const std::string& directory,
                        std::size_t num_threads,
                        std::unique_ptr<ShardedEngine>* out,
                        RecoveryInfo* info = nullptr) {
    const std::string ckpt_path =
        directory + "/" + kCheckpointFileName;
    const std::string wal_path = directory + "/" + kWalFileName;
    const bool have_ckpt = FileExists(ckpt_path);
    const bool have_wal = FileExists(wal_path);
    if (!have_ckpt && !have_wal) {
      return Status::NotFound("no durable state in " + directory);
    }
    if (!have_ckpt) {
      return Status::DataLoss("WAL exists but checkpoint is missing: " +
                              ckpt_path);
    }
    if (!have_wal) {
      return Status::DataLoss("checkpoint exists but WAL is missing: " +
                              wal_path);
    }

    std::vector<uint8_t> body;
    FASTPPR_RETURN_IF_ERROR(
        ReadFramedFile(ckpt_path, kCheckpointMagic, &body));
    ArenaReader r(body);
    DurableManifest manifest;
    if (!manifest.LoadFrom(&r)) {
      return Status::Corruption("checkpoint manifest malformed");
    }
    if (manifest.engine_tag != Engine::kPersistTag) {
      return Status::Corruption(
          "checkpoint was written by a different engine type");
    }
    if (!ManifestFitsBody(manifest, body.size())) {
      return Status::Corruption("checkpoint manifest values out of range");
    }

    MonteCarloOptions opts;
    opts.walks_per_node =
        static_cast<std::size_t>(manifest.walks_per_node);
    opts.epsilon = manifest.epsilon;
    opts.update_policy =
        static_cast<UpdatePolicy>(manifest.update_policy);
    opts.seed = manifest.seed;
    ShardedOptions sharding;
    sharding.num_shards = manifest.num_shards;
    sharding.num_threads = num_threads;
    std::unique_ptr<ShardedEngine> engine(new ShardedEngine(
        typename Engine::ForRecovery{},
        static_cast<std::size_t>(manifest.num_nodes), opts, sharding));
    FASTPPR_RETURN_IF_ERROR(engine->RestoreFrom(&r, manifest.next_window));
    if (info) {
      *info = RecoveryInfo{};
      info->checkpoint_window =
          engine->windows_applied_.load(std::memory_order_relaxed);
    }

    DurableManifest wal_manifest;
    std::vector<WalRecord> records;
    FASTPPR_RETURN_IF_ERROR(ReadWal(wal_path, &wal_manifest, &records));
    // engine_tag 0 = the WAL header itself was torn (crash inside
    // rotation): by construction such a log holds no records.
    if (wal_manifest.engine_tag != 0 &&
        !wal_manifest.SameEngine(manifest)) {
      return Status::Corruption(
          "WAL and checkpoint describe different engines");
    }
    for (const WalRecord& rec : records) {
      // Records below the checkpoint's window are from before the
      // checkpoint (a crash can land between the checkpoint rename and
      // the WAL rotation); the checkpoint already contains them. The
      // comparison uses windows SUBMITTED — the synchronous counter the
      // WAL is numbered by.
      const uint64_t next =
          engine->windows_submitted_.load(std::memory_order_relaxed);
      if (rec.window < next) continue;
      if (rec.window > next) {
        return Status::DataLoss("WAL skips ingestion windows");
      }
      // Replay through the normal apply path. A non-OK status here is
      // the deterministic re-occurrence of the rejection the original
      // caller saw (and the applied prefix is repaired identically);
      // it is not a recovery failure.
      (void)engine->ApplyWindow(rec.events);
      if (info) {
        ++info->replayed_windows;
        info->replayed_events += rec.events.size();
      }
    }
    engine->Drain();
    *out = std::move(engine);
    return Status::OK();
  }

 private:
  /// Whether a checkpoint manifest describes an engine this body could
  /// hold, checked before anything is allocated from it: R >= 1, eps in
  /// (0, 1), a known policy, and n, R and S no larger than the body
  /// leaves room for. Each node writes at least its out-degree, each
  /// owned segment at least its length, end reason and source, and each
  /// shard at least its two RNG states and a row size per node and
  /// index pool. Every quotient is taken before a product, so no garbage
  /// value overflows.
  static bool ManifestFitsBody(const DurableManifest& m, uint64_t bytes) {
    constexpr uint64_t kSides = Engine::WalkSteps::kSides;
    const uint64_t n = m.num_nodes;
    const uint64_t spn = kSides * m.walks_per_node;
    const uint64_t per_shard =
        2 * sizeof(std::array<uint64_t, 4>) + 2 * kSides * 4 * n;
    return m.walks_per_node >= 1 && m.epsilon > 0.0 && m.epsilon < 1.0 &&
           m.update_policy <=
               static_cast<uint8_t>(UpdatePolicy::kRedoFromSource) &&
           m.num_shards >= 1 && n <= bytes / 4 &&
           m.walks_per_node <= bytes &&
           (n == 0 || spn <= bytes / (9 * n)) &&
           m.num_shards <= bytes / per_shard;
  }

  static std::size_t ResolveThreads(const ShardedOptions& sharding) {
    FASTPPR_CHECK(sharding.num_shards >= 1);
    if (sharding.num_threads != 0) return sharding.num_threads;
    const std::size_t hw = std::thread::hardware_concurrency();
    return std::min(sharding.num_shards, hw > 0 ? hw : 1);
  }

  /// Recovery construction (Recover): shards attach to the shared graph
  /// without generating walk segments — RestoreFrom replaces every
  /// member. Skipping the nR/eps generation is the "instant" in
  /// instant restart.
  ShardedEngine(typename Engine::ForRecovery, std::size_t num_nodes,
                const MonteCarloOptions& opts,
                const ShardedOptions& sharding)
      : base_options_(opts),
        pool_(ResolveThreads(sharding)),
        graph_(std::make_shared<DiGraph>(num_nodes)) {
    Init(sharding.num_shards, /*for_recovery=*/true);
  }

  void Init(std::size_t num_shards, bool for_recovery) {
    const auto S = static_cast<uint32_t>(num_shards);
    shards_.reserve(S);
    for (uint32_t s = 0; s < S; ++s) {
      MonteCarloOptions shard_opts = base_options_;
      shard_opts.seed = ShardSeed(base_options_.seed, s);
      shard_opts.shard_index = s;
      shard_opts.shard_count = S;
      if (for_recovery) {
        shards_.push_back(std::make_unique<Engine>(
            typename Engine::ForRecovery{}, graph_, shard_opts));
      } else {
        shards_.push_back(std::make_unique<Engine>(graph_, shard_opts));
      }
    }
    shard_ptrs_.reserve(S);
    for (const auto& shard : shards_) shard_ptrs_.push_back(shard.get());
    metrics_registry_ = std::make_unique<obs::MetricsRegistry>();
    om_ = obs::EngineMetrics::Register(metrics_registry_.get(), S);
    // Tracks: S repair lanes + writer + publish.
    tracer_.Init(S + 2);
    pipeline_ = std::thread([this] { PipelineLoop(); });
  }

  /// The caller's half of one window, shared by ApplyEvents and WAL
  /// replay: wait for the previous window to retire, mutate the graph,
  /// and hand the applied prefix to the pipeline thread in the slot.
  Status ApplyWindow(std::span<const EdgeEvent> events) {
    // Instrumentation is gated on one relaxed flag read per window: the
    // cold path takes zero clock reads, and hot-path timing never
    // touches the RNG streams, so the determinism contract is unchanged
    // either way.
    const bool hot = metrics_enabled();
    const uint64_t window =
        windows_submitted_.load(std::memory_order_relaxed);
    const uint64_t window_start = hot ? obs::NowNanos() : 0;
    // The previous window's repair and boundary sink are the graph's
    // only other readers; the single writer waits them out before it
    // mutates.
    Drain();
    const uint64_t ingest_start = hot ? obs::NowNanos() : 0;
    // The shared window protocol (ApplyWindowPrefix) is what makes the
    // S=1 engine consume the identical RNG stream as the flat engines.
    std::size_t applied = 0;
    const Status result = ApplyWindowPrefix(
        events,
        [this](const Edge& e, bool insert) {
          return insert ? graph_->AddEdge(e.src, e.dst)
                        : graph_->RemoveEdge(e.src, e.dst);
        },
        &applied);
    // The drain above retired the previous window, so the slot is free.
    slot_.applied.assign(events.begin(), events.begin() + applied);
    slot_.events = events.size();
    if (hot) {
      const uint64_t now = obs::NowNanos();
      om_.ingest_phase->Record(now - ingest_start);
      tracer_.Record(writer_track(), obs::Phase::kIngest, window,
                     ingest_start, now);
    }
    // Submitted is bumped with the hand-off, so windows_applied (stored
    // by the pipeline thread when the window retires) can never be
    // observed ahead of windows_submitted.
    {
      std::lock_guard<std::mutex> lock(slot_mu_);
      windows_submitted_.store(window + 1, std::memory_order_release);
      slot_full_ = true;
    }
    slot_cv_.notify_all();
    if (hot) {
      // Caller-side window cost (the drain wait included); repair cost
      // lives in repair_phase and the tracer's lane tracks.
      om_.ingest_window->Record(obs::NowNanos() - window_start);
    }
    return result;
  }

  /// Pipeline thread main loop: one window per full slot — repair every
  /// shard, retire the boundary. A window handed over before the
  /// destructor closes the slot is still retired.
  void PipelineLoop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(slot_mu_);
        slot_cv_.wait(lock, [&] { return slot_full_ || closing_; });
        if (!slot_full_) return;
      }
      RepairShards(slot_.applied);
      CompleteWindow();
    }
  }

  /// The window's repair phase: builds the prefix's net delta once and
  /// repairs every shard in one parallel dispatch against the graph,
  /// whose epoch must not move meanwhile. The delta is read-only across
  /// the dispatch.
  void RepairShards(std::span<const EdgeEvent> prefix) {
    const bool hot = metrics_enabled();
    const uint64_t window =
        windows_applied_.load(std::memory_order_relaxed);
    delta_.Build(prefix, Engine::kRepairsInEdges);
    const uint64_t epoch = graph_->epoch();
    pool_.ParallelFor(shards_.size(), [&](std::size_t s) {
      const uint64_t t0 = hot ? obs::NowNanos() : 0;
      shards_[s]->RepairWindow(delta_);
      if (hot) {
        const uint64_t t1 = obs::NowNanos();
        om_.repair_phase->Record(t1 - t0);
        tracer_.Record(s, obs::Phase::kRepair, window, t0, t1);
      }
    });
    FASTPPR_CHECK_MSG(graph_->epoch() == epoch,
                      "graph mutated during a parallel repair phase");
  }

  /// Window-boundary retirement on the pipeline thread: hot stats, the
  /// boundary sink (snapshot publish upstream), then the slot release
  /// and applied-count bump that release Drain()ers.
  void CompleteWindow() {
    const uint64_t epoch =
        windows_applied_.load(std::memory_order_relaxed) + 1;
    const bool hot = metrics_enabled();
    if (hot) {
      om_.events_ingested->Add(slot_.events);
      om_.windows_applied->Set(epoch);
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        const WalkUpdateStats st = shards_[s]->last_event_stats();
        om_.walks_repaired->Add(st.segments_updated, s);
        om_.walk_steps->Add(st.walk_steps, s);
      }
      SetPoolLedger();
    }
    if (BoundarySink* sink = sink_.load(std::memory_order_acquire)) {
      sink->OnWindowBoundary(Boundary(epoch, slot_.applied));
    }
    {
      std::lock_guard<std::mutex> lock(slot_mu_);
      slot_full_ = false;
      windows_applied_.store(epoch, std::memory_order_release);
    }
    slot_cv_.notify_all();
  }

  /// The walk stores' stripes of the memory ledger (one per shard),
  /// read while the stores are quiescent (at a window boundary).
  void SetPoolLedger() {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const slab::BlockPool& pool = shards_[s]->walk_store().pool();
      om_.pool_live_bytes->Set(pool.live_bytes(), s);
      om_.pool_held_bytes->Set(pool.held_bytes(), s);
    }
  }

  BoundaryContext Boundary(uint64_t epoch,
                           std::span<const EdgeEvent> applied) const {
    BoundaryContext ctx;
    ctx.epoch = epoch;
    ctx.shards = std::span<const Engine* const>(shard_ptrs_);
    ctx.graph = graph_.get();
    ctx.applied = applied;
    return ctx;
  }

  DurableManifest BuildManifest() const {
    DurableManifest m;
    m.num_nodes = num_nodes();
    m.walks_per_node = base_options_.walks_per_node;
    m.epsilon = base_options_.epsilon;
    m.seed = base_options_.seed;
    m.update_policy = static_cast<uint8_t>(base_options_.update_policy);
    m.engine_tag = Engine::kPersistTag;
    m.num_shards = static_cast<uint32_t>(shards_.size());
    m.next_window = windows_applied_.load(std::memory_order_relaxed);
    return m;
  }

  /// Complete engine state in SaveTo-chain order: window counter, the
  /// shared graph, then every shard engine (walk slabs + RNG + stats).
  /// The transient window delta and window slot are excluded: every
  /// window rebuilds both. `Sink` is ArenaWriter (SerializeState) or FramedFileSink
  /// (Checkpoint).
  template <typename Sink>
  void SerializeTo(Sink* w) const {
    w->Pod(windows_applied_.load(std::memory_order_relaxed));
    graph_->SaveTo(w);
    w->Pod(static_cast<uint64_t>(shards_.size()));
    for (const auto& shard : shards_) shard->SaveTo(w);
  }

  /// Restores SerializeTo's state; `next_window` is the manifest's,
  /// which the writer set to the same window counter.
  Status RestoreFrom(ArenaReader* r, uint64_t next_window) {
    uint64_t windows = 0;
    uint64_t shard_count = 0;
    if (!r->Pod(&windows)) return r->ToStatus("checkpoint body");
    if (windows != next_window) {
      return Status::Corruption(
          "checkpoint window counter disagrees with manifest");
    }
    if (!graph_->LoadFrom(r) || !r->Pod(&shard_count)) {
      return r->ToStatus("checkpoint graph");
    }
    if (shard_count != shards_.size()) {
      return Status::Corruption(
          "checkpoint shard count disagrees with manifest");
    }
    for (auto& shard : shards_) {
      if (!shard->LoadFrom(r)) return r->ToStatus("checkpoint shard");
    }
    if (!r->AtEnd()) return r->ToStatus("checkpoint body");
    windows_applied_.store(windows, std::memory_order_relaxed);
    windows_submitted_.store(windows, std::memory_order_relaxed);
    return Status::OK();
  }

  std::string CheckpointPath() const {
    return durability_.directory + "/" + kCheckpointFileName;
  }
  std::string WalPath() const {
    return durability_.directory + "/" + kWalFileName;
  }

  MonteCarloOptions base_options_;
  ThreadPool pool_;
  /// The one graph: the caller writes it, the shards read it.
  std::shared_ptr<DiGraph> graph_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<const Engine*> shard_ptrs_;  ///< raw view for BoundaryContext
  /// The current window's net delta: written by the pipeline thread,
  /// read by every shard during the repair dispatch.
  WindowDelta delta_;
  /// Windows the caller has finished submitting (synchronous; WAL
  /// numbering) vs windows fully applied (repairs + boundary sink).
  /// Equal at every drained boundary; applied trails submitted by at
  /// most one window otherwise.
  std::atomic<uint64_t> windows_submitted_{0};
  std::atomic<uint64_t> windows_applied_{0};
  std::atomic<BoundarySink*> sink_{nullptr};

  // Durability state (inert until EnableDurability).
  bool durable_ = false;
  DurabilityOptions durability_;
  WalWriter wal_;
  uint64_t last_checkpoint_window_ = 0;

  // Observability state (DESIGN.md §9). Deliberately excluded from
  // SerializeTo/RestoreFrom: metrics describe this process's execution,
  // not the durable walk state, and serializing them would break the
  // crash tests' bit-identity oracle.
  std::unique_ptr<obs::MetricsRegistry> metrics_registry_;
  obs::EngineMetrics om_;
  obs::PhaseTracer tracer_;
  std::atomic<bool> metrics_hot_{true};

  /// The pipeline: the one in-flight window, and the thread that repairs
  /// and retires it. The caller fills `slot_` only after Drain() saw
  /// the previous window retire, then sets `slot_full_` under
  /// `slot_mu_`; the pipeline thread clears it and bumps windows_applied_
  /// under the same mutex when the window retires. `slot_cv_` wakes the
  /// pipeline thread (a full slot, or closing) and Drain() (a retired
  /// window). Declared after everything the thread uses; started last
  /// in Init, joined in the destructor.
  struct WindowSlot {
    std::vector<EdgeEvent> applied;  ///< the window's applied prefix
    std::size_t events = 0;          ///< the window's submitted events
  };
  WindowSlot slot_;
  bool slot_full_ = false;  ///< guarded by slot_mu_
  bool closing_ = false;    ///< guarded by slot_mu_
  mutable std::mutex slot_mu_;
  mutable std::condition_variable slot_cv_;
  std::thread pipeline_;
};

}  // namespace fastppr

#endif  // FASTPPR_ENGINE_SHARDED_ENGINE_H_
