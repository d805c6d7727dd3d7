#ifndef FASTPPR_SERVE_SERVING_TIER_H_
#define FASTPPR_SERVE_SERVING_TIER_H_

// Overload-safe serving tier over a QueryService (DESIGN.md §10).
//
// The query service's reads are lock-free against ingestion (PR 4) but
// arrivals used to be closed-loop: offered load past saturation grew
// caller queues without bound and destroyed every percentile. This tier
// makes the service degrade gracefully instead of collapsing:
//
//  * Admission control — one bounded AdmissionQueue per query class
//    (TopK / Score / PersonalizedTopK). Enqueue past capacity sheds
//    immediately with ResourceExhausted + a retry-after hint; queued
//    requests that age past the controlled-delay horizon are shed at
//    dequeue; under pressure admitted dequeues go LIFO so the served
//    requests are fresh and the admitted p99 stays flat.
//  * Deadlines — every Request carries a serve::Deadline. An expired
//    request is answered DeadlineExceeded without touching the engine;
//    a deadline expiring mid-walk cancels the walk cooperatively
//    (WalkerOptions::deadline, polled in the accumulation loops).
//  * Degradation ladder — keyed on queue depth and deadline slack:
//    full walk budget → reduced walk budget (length / divisor) →
//    stale-epoch cheap-TopK fallback served from the seqlock count
//    snapshots. Every degraded answer is labelled in the Response
//    (degrade + snapshot epochs vs fresh_epoch), so correctness stays
//    auditable: a degraded answer is never silently passed off as full
//    fidelity.
//
//  * One execution path — every personalized request runs alone
//    through QueryService::PersonalizedTopKInto (one frozen-view pin)
//    on its worker's dense walk scratch, which the worker owns beside
//    its ReadScratch and reuses across requests, aborted walks
//    included.
//  * Result cache — an epoch-keyed sharded LRU (serve/result_cache.h)
//    consulted before admission: a hit bypasses the queue entirely and
//    is labelled (`Response::cache_hit` + the entry's audited epochs).
//    Entries are keyed by frozen epoch, so publish rotation invalidates
//    by construction.
//
// Terminal-outcome contract: every Submit() resolves its on_done
// exactly once with one of {admitted (possibly degraded or from
// cache), shed, deadline-expired, unavailable} — no silent hangs, even
// when a shard stalls (the stalled worker wedges ONE request; the
// queue bounds and the controlled-delay shed keep resolving the rest)
// or the tier shuts down mid-backlog (Close + drain answers
// Unavailable).

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "fastppr/engine/query_service.h"
#include "fastppr/serve/admission_queue.h"
#include "fastppr/serve/deadline.h"
#include "fastppr/serve/result_cache.h"
#include "fastppr/util/check.h"
#include "fastppr/util/status.h"

namespace fastppr::serve {

enum class QueryClass : std::size_t {
  kTopK = 0,
  kScore = 1,
  kPersonalized = 2,
};
inline constexpr std::size_t kNumQueryClasses = 3;

/// How far down the degradation ladder an answer was served.
enum class DegradeLevel : std::size_t {
  kFull = 0,         ///< full walk budget / exact snapshot read
  kReducedWalk = 1,  ///< personalized walk at a fraction of the budget
  kStaleFallback = 2,///< cheap global-TopK answer from the (possibly
                     ///  stale-epoch) count snapshots, no walk at all
};

inline const char* DegradeLevelName(DegradeLevel d) {
  switch (d) {
    case DegradeLevel::kFull: return "full";
    case DegradeLevel::kReducedWalk: return "reduced_walk";
    case DegradeLevel::kStaleFallback: return "stale_fallback";
  }
  return "unknown";
}

/// The tier's answer. Exactly one Response per Submit, always.
struct Response {
  Status status;                       ///< OK, ResourceExhausted (shed),
                                       ///  DeadlineExceeded, Unavailable
  DegradeLevel degrade = DegradeLevel::kFull;
  bool degraded() const { return degrade != DegradeLevel::kFull; }

  /// Shed only: wait at least this long before retrying (the
  /// admission queue's backlog-drain estimate).
  uint64_t retry_after_ns = 0;

  /// Which snapshot epochs the answer was computed from, and where the
  /// service's published epoch stood at execution time — the staleness
  /// of a degraded answer is auditable, never hidden.
  SnapshotInfo snapshot;
  uint64_t fresh_epoch = 0;

  /// Served from the epoch-keyed result cache: the queue was bypassed
  /// (queue_ns == service_ns == 0) and `snapshot` carries the audited
  /// epochs of the frozen view the cached walk was computed against —
  /// a hit is labelled, never passed off as a freshly executed walk.
  bool cache_hit = false;

  uint64_t queue_ns = 0;    ///< measured sojourn (admitted AND
                            ///  dequeue-side sheds — a CoDel shed
                            ///  reports the delay that doomed it)
  uint64_t service_ns = 0;  ///< execution time (0 when shed/expired)

  // Per-class payloads (only the requested class's field is filled).
  std::vector<ScoredNode> ranked;  ///< kPersonalized (walk or fallback)
  std::vector<NodeId> topk;        ///< kTopK
  double score = 0.0;              ///< kScore
};

struct Request {
  QueryClass cls = QueryClass::kScore;
  NodeId node = 0;            ///< seed (personalized / score)
  std::size_t k = 10;         ///< result count (topk / personalized)
  uint64_t walk_length = 0;   ///< full walk budget (personalized)
  bool exclude_friends = true;
  uint64_t rng_seed = 0;
  Deadline deadline = Deadline::Infinite();
  /// Open-loop accounting: the scheduled arrival instant (ns on the
  /// tier's clock). 0 = stamped at Submit. Latency owed to dispatcher
  /// lag is charged to the request, never silently dropped — the
  /// coordinated-omission-free measurement the bench relies on.
  uint64_t arrival_ns = 0;
  /// Invoked exactly once, from a worker thread (or from Submit for an
  /// immediate shed). Must be set.
  std::function<void(const Response&)> on_done;
};

struct ServingTierOptions {
  std::size_t num_workers = 2;
  /// Per-class admission queues (same defaults unless overridden).
  AdmissionQueueOptions queue;
  /// Per-class capacity overrides, indexed by QueryClass (0 = use
  /// `queue.capacity`). Personalized serving typically wants a deeper
  /// walk queue than the cheap snapshot classes; the degradation ladder
  /// reads each request's OWN class capacity, so the fractions stay
  /// meaningful under asymmetric configs.
  std::array<std::size_t, kNumQueryClasses> queue_capacity = {0, 0, 0};
  /// Epoch-keyed PersonalizedTopK result cache, consulted before
  /// admission. Invalidation is by construction (entries keyed by
  /// frozen epoch); disable for traffic with no seed repetition.
  bool enable_result_cache = true;
  ResultCacheOptions cache;
  /// Ladder rung 1: queue depth (fraction of capacity) past which a
  /// personalized walk runs at reduced budget (also below
  /// kReduceSlackNs of deadline slack).
  double reduce_depth_frac = 0.50;
  /// Ladder rung 2: queue depth past which the walk is skipped entirely
  /// for the cheap stale-fallback answer (also below kFallbackSlackNs).
  double fallback_depth_frac = 0.85;
  ClockFn clock = &obs::NowNanos;
};

/// Deadline slack below which a personalized walk runs at reduced
/// budget: its length divided by kReducedWalkDivisor.
inline constexpr uint64_t kReduceSlackNs = 2'000'000;
inline constexpr uint64_t kReducedWalkDivisor = 4;
/// Deadline slack below which no walk runs (the stale fallback).
inline constexpr uint64_t kFallbackSlackNs = 300'000;
/// Time quantum of one class's turn in the worker rotation. Serving one
/// entry per class per turn would ration by COUNT — the class with the
/// highest arrival rate overflows first even when its queries are 100x
/// cheaper than everyone else's. A time slice is cost-aware for free: a
/// turn drains hundreds of cheap queries or a couple of expensive walks,
/// and no class can hold a worker longer than slice + one query.
inline constexpr uint64_t kClassSliceNs = 500'000;

/// Outcome tallies, readable at any time (relaxed atomics). The
/// fault-injection tests assert resolved() == submitted().
struct OutcomeCounts {
  uint64_t admitted_full = 0;
  uint64_t admitted_degraded = 0;
  uint64_t shed = 0;
  uint64_t deadline_expired = 0;
  uint64_t unavailable = 0;
  uint64_t failed = 0;  ///< any other non-OK execution status
  uint64_t resolved() const {
    return admitted_full + admitted_degraded + shed + deadline_expired +
           unavailable + failed;
  }
};

template <typename Engine>
class ServingTier {
  // The class-striped counters in obs/engine_metrics.h are registered
  // with a literal stripe count; pin it to the enum here.
  static_assert(kNumQueryClasses == 3,
                "obs/engine_metrics.h stripes serve_* counters by 3 "
                "query classes");
  // Same deal for the cache-shard-striped serve_cache_* counters.
  static_assert(kResultCacheShards == 8,
                "obs/engine_metrics.h stripes serve_cache_* counters by "
                "8 cache shards");

 public:
  using Service = QueryService<Engine>;

  ServingTier(Service* service, const ServingTierOptions& options)
      : service_(service),
        options_(options),
        queues_{ClassQueueOptions(options, 0), ClassQueueOptions(options, 1),
                ClassQueueOptions(options, 2)},
        cache_(options.cache) {
    FASTPPR_CHECK(service_ != nullptr);
    FASTPPR_CHECK(options_.num_workers >= 1);
    om_ = service_->engine()->metric_handles();
    workers_.reserve(options_.num_workers);
    for (std::size_t w = 0; w < options_.num_workers; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ServingTier() { Shutdown(); }

  ServingTier(const ServingTier&) = delete;
  ServingTier& operator=(const ServingTier&) = delete;

  /// Submits one request. Never blocks on the engine: the request is
  /// either answered from the result cache, queued (a worker resolves
  /// it), or resolved right here (shed on a full queue, unavailable
  /// after shutdown). on_done fires exactly once either way.
  void Submit(Request req) {
    FASTPPR_CHECK(req.on_done != nullptr);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (req.arrival_ns == 0) req.arrival_ns = options_.clock();
    const std::size_t cls = static_cast<std::size_t>(req.cls);
    FASTPPR_CHECK(cls < kNumQueryClasses);
    if (stopping_.load(std::memory_order_acquire)) {
      RespondUnavailable(req);
      return;
    }
    if (req.cls == QueryClass::kPersonalized &&
        options_.enable_result_cache && TryServeFromCache(req)) {
      return;
    }
    // Test-only: exercises the Submit/Close race deterministically (the
    // shutdown-mislabel regression test arms it to land Close() between
    // the stopping_ check above and TryEnqueue below).
    if (submit_race_armed_.load(std::memory_order_acquire)) {
      std::function<void(QueryClass)> hook;
      {
        std::lock_guard<std::mutex> lock(fault_mu_);
        hook = submit_race_hook_;
      }
      if (hook) hook(req.cls);
    }
    uint64_t retry_after = 0;
    // TryEnqueue moves from `req` only on kQueued; on the rejection
    // paths the request is still intact here. Closed and full are
    // distinct outcomes: a Submit racing Close() must be answered
    // Unavailable (shutdown), not ResourceExhausted + retry hint
    // (overload) — clients must not back off and retry a dying server.
    switch (queues_[cls].TryEnqueue(&req, &retry_after)) {
      case EnqueueOutcome::kClosed:
        RespondUnavailable(req);
        return;
      case EnqueueOutcome::kFull:
        RespondShed(req, retry_after);
        return;
      case EnqueueOutcome::kQueued:
        break;
    }
    // Skip the lock+notify when every worker is already busy draining —
    // at overload rates Submit runs hot and the condvar handshake is
    // pure contention. No wakeup is lost: this increment and the load
    // below, and a sleeping worker's idle_workers_ increment and its
    // check of queued_, are all seq_cst, so either the worker sees the
    // request or this Submit sees the worker and notifies it (under
    // wake_mu_, which the worker holds until it waits).
    queued_.fetch_add(1, std::memory_order_seq_cst);
    if (idle_workers_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(wake_mu_);
      wake_.notify_one();
    }
  }

  /// Stops the workers and resolves every still-queued request with
  /// Unavailable. Idempotent; also run by the destructor.
  void Shutdown() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      for (std::thread& t : workers_) {
        if (t.joinable()) t.join();
      }
      return;
    }
    for (auto& q : queues_) q.Close();
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      wake_.notify_all();
    }
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
    // Drain after join: single-threaded, every leftover resolves.
    for (auto& q : queues_) {
      Request req;
      while (q.DrainClosed(&req)) RespondUnavailable(req);
    }
  }

  OutcomeCounts outcomes() const {
    OutcomeCounts c;
    c.admitted_full = tally_[0].load(std::memory_order_relaxed);
    c.admitted_degraded = tally_[1].load(std::memory_order_relaxed);
    c.shed = tally_[2].load(std::memory_order_relaxed);
    c.deadline_expired = tally_[3].load(std::memory_order_relaxed);
    c.unavailable = tally_[4].load(std::memory_order_relaxed);
    c.failed = tally_[5].load(std::memory_order_relaxed);
    return c;
  }
  uint64_t submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }

  std::size_t queue_depth(QueryClass cls) const {
    return queues_[static_cast<std::size_t>(cls)].size();
  }
  std::size_t queue_high_water(QueryClass cls) const {
    return queues_[static_cast<std::size_t>(cls)].high_water();
  }
  std::size_t queue_capacity(QueryClass cls) const {
    return queues_[static_cast<std::size_t>(cls)].capacity();
  }

  /// Result-cache lifetime totals (hits/misses/insertions/evictions).
  ResultCache::Stats cache_stats() const { return cache_.stats(); }

  /// Both count executed personalized walks: each request is its own
  /// batch of one (one frozen-view pin), so their ratio, the mean batch
  /// size, is 1 whenever a walk ran.
  uint64_t batches_executed() const {
    return walks_executed_.load(std::memory_order_relaxed);
  }
  uint64_t batched_requests() const {
    return walks_executed_.load(std::memory_order_relaxed);
  }

  /// Test-only fault injection (slow shard, stalled dependency): when
  /// armed, runs at the start of every executed request — a hook that
  /// sleeps models a stalled shard under the walker. Not for
  /// production paths; guarded by one relaxed atomic load when unset.
  void SetFaultHook(std::function<void(QueryClass)> hook) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    fault_hook_ = std::move(hook);
    fault_armed_.store(fault_hook_ != nullptr, std::memory_order_release);
  }

  /// Test-only: runs inside Submit between the stopping_ check and
  /// TryEnqueue — the window of the shutdown-mislabel race.
  void SetSubmitRaceHook(std::function<void(QueryClass)> hook) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    submit_race_hook_ = std::move(hook);
    submit_race_armed_.store(submit_race_hook_ != nullptr,
                             std::memory_order_release);
  }

 private:
  static constexpr std::size_t kTallyAdmittedFull = 0;
  static constexpr std::size_t kTallyAdmittedDegraded = 1;
  static constexpr std::size_t kTallyShed = 2;
  static constexpr std::size_t kTallyDeadline = 3;
  static constexpr std::size_t kTallyUnavailable = 4;
  static constexpr std::size_t kTallyFailed = 5;

  void Tally(std::size_t slot) {
    tally_[slot].fetch_add(1, std::memory_order_relaxed);
  }

  /// Builds one class's queue options: shared knobs + the per-class
  /// capacity override.
  static AdmissionQueueOptions ClassQueueOptions(
      const ServingTierOptions& options, std::size_t cls) {
    AdmissionQueueOptions q = options.queue;
    if (options.queue_capacity[cls] != 0) {
      q.capacity = options.queue_capacity[cls];
    }
    return q;
  }

  // Status messages on the overload paths stay within the small-string
  // buffer: at 2x saturation the shed path runs at the offered rate,
  // and a heap allocation per rejection is exactly the kind of work an
  // overloaded tier must not do.
  //
  // `queue_ns` is the measured sojourn for dequeue-side (CoDel) sheds —
  // threaded into the Response and the serve_queue_wait histogram so
  // the delay that doomed a request is observable, not discarded.
  // Enqueue-side sheds never queued and pass 0.
  void RespondShed(const Request& req, uint64_t retry_after_ns,
                   uint64_t queue_ns = 0) {
    Response resp;
    resp.status = Status::ResourceExhausted("overloaded");
    resp.queue_ns = queue_ns;
    resp.retry_after_ns =
        retry_after_ns != 0
            ? retry_after_ns
            : queues_[static_cast<std::size_t>(req.cls)].RetryAfterHint();
    Tally(kTallyShed);
    if (service_->engine()->metrics_enabled()) {
      om_.serve_shed->Add(1, static_cast<std::size_t>(req.cls));
      if (queue_ns != 0) om_.serve_queue_wait->Record(queue_ns);
    }
    req.on_done(resp);
  }

  /// The admission-bypass probe: answers `req` from the cache and
  /// returns true on a hit. The key's epoch is the CURRENT frozen
  /// epoch, so entries computed against retired views are unreachable
  /// by construction — a concurrent rotation can only turn a would-be
  /// hit into a miss, never serve a stale entry as fresh.
  bool TryServeFromCache(const Request& req) {
    ResultCacheKey key;
    key.frozen_epoch = service_->frozen_epoch();
    key.seed = req.node;
    key.k = req.k;
    key.walk_length = req.walk_length;
    key.exclude_friends = req.exclude_friends;
    const std::size_t stripe = ResultCache::ShardOf(key);
    const bool hot = service_->engine()->metrics_enabled();
    ResultCacheEntry entry;
    if (!cache_.Lookup(key, &entry)) {
      if (hot) om_.serve_cache_miss->Add(1, stripe);
      return false;
    }
    Response resp;
    resp.status = Status::OK();
    resp.cache_hit = true;
    resp.snapshot.min_epoch = entry.min_epoch;
    resp.snapshot.max_epoch = entry.max_epoch;
    resp.fresh_epoch = service_->published_epoch();
    resp.ranked = std::move(entry.ranked);
    Tally(kTallyAdmittedFull);
    if (hot) {
      om_.serve_cache_hit->Add(1, stripe);
      om_.serve_admitted->Add(1, static_cast<std::size_t>(req.cls));
    }
    req.on_done(resp);
    return true;
  }

  /// Inserts a freshly executed answer. Only full-fidelity, single-
  /// epoch, non-cached personalized answers are cacheable: a degraded
  /// answer must never be replayed as full fidelity, and a mixed-epoch
  /// snapshot has no single frozen epoch to key by.
  void MaybeCacheInsert(const Request& req, const Response& resp) {
    if (!options_.enable_result_cache ||
        req.cls != QueryClass::kPersonalized) {
      return;
    }
    if (resp.cache_hit || resp.degrade != DegradeLevel::kFull ||
        resp.snapshot.min_epoch != resp.snapshot.max_epoch) {
      return;
    }
    ResultCacheKey key;
    key.frozen_epoch = resp.snapshot.min_epoch;
    key.seed = req.node;
    key.k = req.k;
    key.walk_length = req.walk_length;
    key.exclude_friends = req.exclude_friends;
    ResultCacheEntry entry;
    entry.ranked = resp.ranked;
    entry.min_epoch = resp.snapshot.min_epoch;
    entry.max_epoch = resp.snapshot.max_epoch;
    const std::size_t evicted = cache_.Insert(key, std::move(entry));
    if (evicted != 0 && service_->engine()->metrics_enabled()) {
      om_.serve_cache_evict->Add(evicted, ResultCache::ShardOf(key));
    }
  }

  void RespondUnavailable(const Request& req) {
    Response resp;
    resp.status = Status::Unavailable("shutting down");
    resp.retry_after_ns = options_.queue.target_delay_ns;
    Tally(kTallyUnavailable);
    req.on_done(resp);
  }

  /// One worker's reusable read buffers: the merged-count scratch of
  /// the snapshot reads and the dense walk scratch of the personalized
  /// ones.
  struct WorkerScratch {
    ReadScratch read;
    typename Service::PersonalizedScratch walk;
  };

  void WorkerLoop() {
    WorkerScratch scratch;
    std::size_t rotate = 0;
    for (;;) {
      bool did_work = false;
      // Time-sliced rotating scan: each non-empty class gets one timed
      // turn, so a flooded class cannot starve the rest and a cheap
      // flooded class is drained at its own (fast) rate instead of
      // being rationed to one query per rotation.
      for (std::size_t i = 0; i < kNumQueryClasses; ++i) {
        const std::size_t cls = (rotate + i) % kNumQueryClasses;
        const uint64_t slice_end = options_.clock() + kClassSliceNs;
        for (;;) {
          Request req;
          uint64_t queue_ns = 0;
          const DequeueOutcome out = queues_[cls].TryDequeue(&req, &queue_ns);
          if (out == DequeueOutcome::kEmpty) break;
          did_work = true;
          queued_.fetch_sub(1, std::memory_order_relaxed);
          if (out == DequeueOutcome::kShed) {
            RespondShed(req, 0, queue_ns);
          } else {
            Execute(req, queue_ns, &scratch);
          }
          if (options_.clock() >= slice_end) break;
        }
        if (did_work) break;  // re-scan from the next class
      }
      ++rotate;
      if (did_work) continue;
      if (stopping_.load(std::memory_order_acquire)) return;
      // Sleep until a Submit or Shutdown notifies (see Submit for why
      // no wakeup is lost). A worker sleeps only with every queue empty,
      // so nothing ages toward the controlled-delay horizon meanwhile.
      std::unique_lock<std::mutex> lock(wake_mu_);
      idle_workers_.fetch_add(1, std::memory_order_seq_cst);
      wake_.wait(lock, [this] {
        return queued_.load(std::memory_order_seq_cst) > 0 ||
               stopping_.load(std::memory_order_acquire);
      });
      idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  /// The degradation ladder: queue depth (how far behind the tier is)
  /// and deadline slack (how much time this request has left) each
  /// push the answer down a rung; the worse of the two wins. The depth
  /// fractions are of the REQUEST'S OWN class queue capacity — reading
  /// queues_[0] here silently skewed every rung once per-class
  /// capacities diverged.
  DegradeLevel Ladder(const Request& req, std::size_t depth) const {
    const double cap = static_cast<double>(
        queues_[static_cast<std::size_t>(req.cls)].capacity());
    const uint64_t slack = req.deadline.remaining_nanos();
    if (static_cast<double>(depth) >= options_.fallback_depth_frac * cap ||
        slack < kFallbackSlackNs) {
      return DegradeLevel::kStaleFallback;
    }
    if (static_cast<double>(depth) >= options_.reduce_depth_frac * cap ||
        slack < kReduceSlackNs) {
      return DegradeLevel::kReducedWalk;
    }
    return DegradeLevel::kFull;
  }

  void Execute(const Request& req, uint64_t queue_ns,
               WorkerScratch* scratch) {
    const std::size_t cls = static_cast<std::size_t>(req.cls);
    Response resp;
    resp.queue_ns = queue_ns;
    // Expired while queued (or before): answer without touching the
    // engine. The walkers re-check cooperatively mid-walk, so a
    // deadline expiring during execution lands here too, via status.
    if (req.deadline.expired()) {
      RespondDeadline(req, &resp);
      return;
    }
    if (fault_armed_.load(std::memory_order_acquire)) {
      std::function<void(QueryClass)> hook;
      {
        std::lock_guard<std::mutex> lock(fault_mu_);
        hook = fault_hook_;
      }
      if (hook) hook(req.cls);
    }
    const uint64_t t0 = options_.clock();
    resp.fresh_epoch = service_->published_epoch();
    resp.degrade = req.cls == QueryClass::kPersonalized
                       ? Ladder(req, queues_[cls].size())
                       : DegradeLevel::kFull;
    Status status;
    switch (req.cls) {
      case QueryClass::kTopK: {
        resp.topk =
            service_->TopKInto(req.k, &scratch->read, &resp.snapshot);
        status = Status::OK();
        break;
      }
      case QueryClass::kScore: {
        resp.score = service_->Score(req.node, &resp.snapshot);
        status = Status::OK();
        break;
      }
      case QueryClass::kPersonalized: {
        status = ExecutePersonalized(req, scratch, &resp);
        break;
      }
    }
    resp.service_ns = options_.clock() - t0;
    FinishExecuted(req, status, &resp);
  }

  /// The post-execution path: status routing, tallies, metrics, the
  /// cache insert, and the single on_done.
  void FinishExecuted(const Request& req, const Status& status,
                      Response* resp) {
    const std::size_t cls = static_cast<std::size_t>(req.cls);
    if (status.IsDeadlineExceeded()) {
      RespondDeadline(req, resp);
      return;
    }
    resp->status = status;
    const bool hot = service_->engine()->metrics_enabled();
    if (status.ok()) {
      Tally(resp->degraded() ? kTallyAdmittedDegraded : kTallyAdmittedFull);
      if (hot) {
        (resp->degraded() ? om_.serve_degraded : om_.serve_admitted)
            ->Add(1, cls);
        om_.serve_queue_wait->Record(resp->queue_ns);
        om_.serve_admitted_latency->Record(resp->queue_ns +
                                           resp->service_ns);
        om_.serve_queue_depth_hw->Set(queues_[cls].high_water(), cls);
      }
      MaybeCacheInsert(req, *resp);
    } else {
      Tally(kTallyFailed);
    }
    req.on_done(*resp);
  }

  /// Personalized walk at the ladder-chosen budget. The stale fallback
  /// serves a global TopK from the seqlock count snapshots: no walk, no
  /// frozen-view pin — the answer an overloaded recommender can still
  /// afford, labelled (degrade + epochs) so it is never mistaken for a
  /// personalized result.
  Status ExecutePersonalized(const Request& req, WorkerScratch* scratch,
                             Response* resp) {
    if (resp->degrade == DegradeLevel::kStaleFallback) {
      ReadScratch& read = scratch->read;
      int64_t total = 0;
      service_->SnapshotCountsInto(&read, &total, &resp->snapshot);
      TopKByCountInto(read.counts, req.k, &read.ranked);
      resp->ranked.clear();
      resp->ranked.reserve(read.ranked.size());
      for (NodeId v : read.ranked) {
        const int64_t visits = read.counts[v];
        resp->ranked.push_back(ScoredNode{
            v, visits,
            total == 0 ? 0.0
                       : static_cast<double>(visits) /
                             static_cast<double>(total)});
      }
      return Status::OK();
    }
    uint64_t length = req.walk_length;
    if (resp->degrade == DegradeLevel::kReducedWalk) {
      length = std::max<uint64_t>(1, length / kReducedWalkDivisor);
    }
    WalkerOptions wopts;
    wopts.deadline = req.deadline;
    walks_executed_.fetch_add(1, std::memory_order_relaxed);
    return service_->PersonalizedTopKInto(
        req.node, req.k, length, req.exclude_friends, req.rng_seed, wopts,
        &scratch->walk, &resp->ranked, /*walk_stats=*/nullptr,
        &resp->snapshot);
  }

  void RespondDeadline(const Request& req, Response* resp) {
    resp->status = Status::DeadlineExceeded("past deadline");
    Tally(kTallyDeadline);
    if (service_->engine()->metrics_enabled()) {
      om_.serve_deadline_expired->Add(1, static_cast<std::size_t>(req.cls));
    }
    req.on_done(*resp);
  }

  Service* service_;
  const ServingTierOptions options_;
  obs::EngineMetrics om_;
  AdmissionQueue<Request> queues_[kNumQueryClasses];
  ResultCache cache_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> queued_{0};
  std::atomic<int> idle_workers_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> tally_[6] = {};
  std::atomic<uint64_t> walks_executed_{0};
  std::mutex wake_mu_;
  std::condition_variable wake_;
  std::mutex fault_mu_;
  std::function<void(QueryClass)> fault_hook_;
  std::atomic<bool> fault_armed_{false};
  std::function<void(QueryClass)> submit_race_hook_;
  std::atomic<bool> submit_race_armed_{false};
};

}  // namespace fastppr::serve

#endif  // FASTPPR_SERVE_SERVING_TIER_H_
