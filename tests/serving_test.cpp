// Overload-safe serving tier (DESIGN.md §10): deadlines, admission
// control, controlled-delay shedding, the degradation ladder, fault
// injection, and the TSan stress pairing concurrent admission/shed/
// deadline-expiry with frozen-view publish rotation (this file runs in
// the TSan CI job alongside sharded_engine_test).

#include "fastppr/serve/serving_tier.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/generators.h"
#include "fastppr/serve/admission_queue.h"
#include "fastppr/serve/deadline.h"
#include "fastppr/serve/retry.h"
#include "fastppr/graph/digraph.h"
#include "fastppr/store/walk_store.h"

namespace fastppr {
namespace {

using serve::AdmissionQueue;
using serve::AdmissionQueueOptions;
using serve::Deadline;
using serve::DegradeLevel;
using serve::DequeueOutcome;
using serve::EnqueueOutcome;
using serve::JitteredBackoff;
using serve::QueryClass;
using serve::Request;
using serve::Response;
using serve::RetryPolicy;
using serve::ServingTier;
using serve::ServingTierOptions;

// ---- fake clocks (deterministic timing for queue/deadline tests) ----

std::atomic<uint64_t> g_fake_now{0};
uint64_t FakeNow() { return g_fake_now.load(std::memory_order_relaxed); }

// A clock that advances itself on every read — drives mid-walk deadline
// expiry without sleeps: the Nth poll crosses the deadline.
std::atomic<uint64_t> g_stepping_now{0};
uint64_t SteppingNow() {
  return g_stepping_now.fetch_add(1000, std::memory_order_relaxed);
}

// ---- Deadline -------------------------------------------------------

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d = Deadline::Infinite();
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_nanos(), ~uint64_t{0});
}

TEST(DeadlineTest, ExpiresOnFakeClock) {
  g_fake_now.store(1000);
  Deadline d = Deadline::AfterNanos(500, &FakeNow);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_nanos(), 500u);
  g_fake_now.store(1499);
  EXPECT_FALSE(d.expired());
  g_fake_now.store(1500);
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_nanos(), 0u);
}

TEST(DeadlineTest, ExpiredSentinelAndSaturation) {
  EXPECT_TRUE(Deadline::Expired(&FakeNow).expired());
  g_fake_now.store(42);
  // "Practically forever" must not wrap into the past.
  Deadline huge = Deadline::AfterNanos(~uint64_t{0} - 10, &FakeNow);
  EXPECT_TRUE(huge.has_deadline());
  EXPECT_FALSE(huge.expired());
}

// ---- AdmissionQueue -------------------------------------------------

AdmissionQueueOptions FakeClockQueueOptions(std::size_t capacity) {
  AdmissionQueueOptions opt;
  opt.capacity = capacity;
  opt.target_delay_ns = 1000;
  opt.shed_interval_ns = 4000;
  opt.clock = &FakeNow;
  return opt;
}

TEST(AdmissionQueueTest, FifoWhenFresh) {
  g_fake_now.store(0);
  AdmissionQueue<int> q(FakeClockQueueOptions(8));
  int a = 1, b = 2;
  EXPECT_EQ(q.TryEnqueue(&a), EnqueueOutcome::kQueued);
  EXPECT_EQ(q.TryEnqueue(&b), EnqueueOutcome::kQueued);
  int out = 0;
  uint64_t wait = 123;
  EXPECT_EQ(q.TryDequeue(&out, &wait), DequeueOutcome::kAdmitted);
  EXPECT_EQ(out, 1);  // oldest first while under the delay target
  EXPECT_EQ(wait, 0u);
  EXPECT_EQ(q.TryDequeue(&out), DequeueOutcome::kAdmitted);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.TryDequeue(&out), DequeueOutcome::kEmpty);
}

TEST(AdmissionQueueTest, ShedsAtCapacityWithRetryAfterHint) {
  g_fake_now.store(0);
  AdmissionQueue<int> q(FakeClockQueueOptions(2));
  int v = 7;
  EXPECT_EQ(q.TryEnqueue(&v), EnqueueOutcome::kQueued);
  EXPECT_EQ(q.TryEnqueue(&v), EnqueueOutcome::kQueued);
  uint64_t retry_after = 0;
  EXPECT_EQ(q.TryEnqueue(&v, &retry_after), EnqueueOutcome::kFull);
  // Full fresh queue: hint is the whole controlled-delay horizon.
  EXPECT_EQ(retry_after, 5000u);
  g_fake_now.store(3000);  // backlog has aged 3µs toward the horizon
  EXPECT_EQ(q.TryEnqueue(&v, &retry_after), EnqueueOutcome::kFull);
  EXPECT_EQ(retry_after, 2000u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.high_water(), 2u);
}

TEST(AdmissionQueueTest, LifoUnderPressure) {
  g_fake_now.store(0);
  AdmissionQueue<int> q(FakeClockQueueOptions(8));
  int a = 1, b = 2;
  EXPECT_EQ(q.TryEnqueue(&a), EnqueueOutcome::kQueued);
  g_fake_now.store(1500);  // oldest sojourn 1500 >= target 1000
  EXPECT_EQ(q.TryEnqueue(&b), EnqueueOutcome::kQueued);
  int out = 0;
  uint64_t wait = 0;
  // Pressure: the NEWEST entry is served (flat admitted latency) while
  // the oldest ages toward the shed horizon.
  EXPECT_EQ(q.TryDequeue(&out, &wait), DequeueOutcome::kAdmitted);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(wait, 0u);
}

TEST(AdmissionQueueTest, ControlledDelayShedsHopelessEntries) {
  g_fake_now.store(0);
  AdmissionQueue<int> q(FakeClockQueueOptions(8));
  int a = 1, b = 2;
  EXPECT_EQ(q.TryEnqueue(&a), EnqueueOutcome::kQueued);
  g_fake_now.store(100);
  EXPECT_EQ(q.TryEnqueue(&b), EnqueueOutcome::kQueued);
  g_fake_now.store(5000);  // a's sojourn 5000 >= target+interval 5000
  int out = 0;
  uint64_t wait = 0;
  EXPECT_EQ(q.TryDequeue(&out, &wait), DequeueOutcome::kShed);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(wait, 5000u);
  // b (sojourn 4900 >= target but < horizon) is admitted, LIFO rules.
  EXPECT_EQ(q.TryDequeue(&out, &wait), DequeueOutcome::kAdmitted);
  EXPECT_EQ(out, 2);
}

TEST(AdmissionQueueTest, CloseShedsNewAndDrainsOld) {
  g_fake_now.store(0);
  AdmissionQueue<int> q(FakeClockQueueOptions(4));
  int a = 1, b = 2;
  EXPECT_EQ(q.TryEnqueue(&a), EnqueueOutcome::kQueued);
  q.Close();
  EXPECT_EQ(q.TryEnqueue(&b), EnqueueOutcome::kClosed);
  int out = 0;
  EXPECT_TRUE(q.DrainClosed(&out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(q.DrainClosed(&out));
}

// Closed vs full are DISTINCT enqueue outcomes — the shutdown/shed
// mislabel regression: a closed queue at capacity must still report
// kClosed (shutdown), never kFull (overload + retry hint).
TEST(AdmissionQueueTest, ClosedReportsClosedEvenWhenFull) {
  g_fake_now.store(0);
  AdmissionQueue<int> q(FakeClockQueueOptions(1));
  int a = 1, b = 2;
  EXPECT_EQ(q.TryEnqueue(&a), EnqueueOutcome::kQueued);
  EXPECT_EQ(q.TryEnqueue(&b), EnqueueOutcome::kFull);
  q.Close();
  EXPECT_EQ(q.TryEnqueue(&b), EnqueueOutcome::kClosed);
}

// ---- retry backoff --------------------------------------------------

TEST(RetryTest, DeterministicForSameSeed) {
  RetryPolicy policy;
  JitteredBackoff a(policy, 42);
  JitteredBackoff b(policy, 42);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.NextDelayNanos(), b.NextDelayNanos());
  }
}

TEST(RetryTest, JitterWindowDoublesUpToCap) {
  RetryPolicy policy;
  policy.base_delay_ns = 1000;
  policy.max_delay_ns = 6000;
  policy.max_attempts = 10;
  JitteredBackoff backoff(policy, 1);
  EXPECT_EQ(backoff.JitterWindowNanos(0), 1000u);
  EXPECT_EQ(backoff.JitterWindowNanos(1), 2000u);
  EXPECT_EQ(backoff.JitterWindowNanos(2), 4000u);
  EXPECT_EQ(backoff.JitterWindowNanos(3), 6000u);  // capped
  EXPECT_EQ(backoff.JitterWindowNanos(9), 6000u);
  for (std::size_t attempt = 0; attempt < 6; ++attempt) {
    const uint64_t window = backoff.JitterWindowNanos(attempt);
    const uint64_t d = backoff.NextDelayNanos();
    EXPECT_LE(d, window);
  }
}

TEST(RetryTest, ServerHintIsAFloor) {
  RetryPolicy policy;
  policy.base_delay_ns = 10;
  policy.max_delay_ns = 20;
  JitteredBackoff backoff(policy, 3);
  EXPECT_GE(backoff.NextDelayNanos(/*server_hint_ns=*/999999), 999999u);
}

TEST(RetryTest, AttemptBudget) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  JitteredBackoff backoff(policy, 5);
  EXPECT_TRUE(backoff.ShouldRetry());       // attempt 0 done, 1 allowed
  backoff.NextDelayNanos();
  EXPECT_TRUE(backoff.ShouldRetry());
  backoff.NextDelayNanos();
  EXPECT_FALSE(backoff.ShouldRetry());      // all 3 attempts consumed
  EXPECT_EQ(backoff.attempts_consumed(), 2u);
}

// ---- walker deadline cancellation -----------------------------------

struct FlatFixture {
  explicit FlatFixture(std::size_t n, std::size_t m, uint64_t seed)
      : graph(n) {
    Rng rng(seed);
    auto edges = ErdosRenyi(n, m, &rng);
    for (const Edge& e : edges) {
      EXPECT_TRUE(graph.AddEdge(e.src, e.dst).ok());
    }
    store.Init(graph, /*R=*/3, /*eps=*/0.2, seed + 1);
  }
  DiGraph graph;
  WalkStore store;
};

TEST(WalkerDeadlineTest, ExpiredDeadlineDoesZeroAccumulation) {
  FlatFixture f(50, 400, 11);
  WalkerOptions opts;
  opts.deadline = Deadline::Expired(&FakeNow);
  PersonalizedPageRankWalker walker(&f.store, &f.graph, opts);
  PersonalizedWalkScratch scratch;
  PersonalizedWalkResult result;
  Status s = walker.Walk(3, 5000, 2, &scratch, &result);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_EQ(result.length, 0u);
  EXPECT_EQ(result.fetches, 0u);
  EXPECT_TRUE(scratch.visited[0].empty());
}

TEST(WalkerDeadlineTest, MidWalkCooperativeCancellation) {
  FlatFixture f(50, 400, 13);
  // The stepping clock advances 1µs per read; the deadline allows ~32
  // reads. At one poll per kDeadlineCheckStride (256) positions the walk
  // is cancelled after ~8k of its 1M positions.
  g_stepping_now.store(0);
  WalkerOptions opts;
  opts.deadline = Deadline::AfterNanos(32'000, &SteppingNow);
  PersonalizedPageRankWalker walker(&f.store, &f.graph, opts);
  PersonalizedWalkScratch scratch;
  PersonalizedWalkResult result;
  Status s = walker.Walk(3, 1'000'000, 2, &scratch, &result);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_GT(result.length, 0u);          // it did start
  EXPECT_LT(result.length, 1'000'000u);  // and stopped well short
}

TEST(WalkerDeadlineTest, UnexpiredDeadlineDoesNotPerturbTheWalk) {
  FlatFixture f(50, 400, 17);
  PersonalizedPageRankWalker plain(&f.store, &f.graph);
  PersonalizedWalkScratch expected_scratch;
  PersonalizedWalkResult expected;
  ASSERT_TRUE(plain.Walk(5, 4000, 9, &expected_scratch, &expected).ok());

  WalkerOptions opts;
  opts.deadline = Deadline::AfterMillis(60'000);  // generous, real clock
  PersonalizedPageRankWalker guarded(&f.store, &f.graph, opts);
  PersonalizedWalkScratch got_scratch;
  PersonalizedWalkResult got;
  ASSERT_TRUE(guarded.Walk(5, 4000, 9, &got_scratch, &got).ok());
  // Deadline polling must not touch the RNG stream: bit-identical walk.
  EXPECT_EQ(got.length, expected.length);
  EXPECT_EQ(got.resets, expected.resets);
  EXPECT_EQ(got_scratch.visited, expected_scratch.visited);
  EXPECT_EQ(got_scratch.counts, expected_scratch.counts);
}

// ---- QueryService deadline threading --------------------------------

using PrEngine = ShardedEngine<IncrementalPageRank>;
using PrService = QueryService<IncrementalPageRank>;

std::vector<EdgeEvent> InsertEvents(std::size_t n, std::size_t m,
                                    uint64_t seed) {
  Rng rng(seed);
  auto edges = ErdosRenyi(n, m, &rng);
  std::vector<EdgeEvent> events;
  events.reserve(edges.size());
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  return events;
}

MonteCarloOptions TestMcOptions() {
  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.2;
  mc.seed = 90;
  return mc;
}

TEST(QueryServiceDeadlineTest, ExpiredDeadlineShortCircuitsTheService) {
  const std::size_t n = 200;
  PrEngine engine(n, TestMcOptions(), ShardedOptions{2, 2});
  PrService service(&engine);
  const auto events = InsertEvents(n, 1200, 21);
  ASSERT_TRUE(
      service.Ingest(std::span<const EdgeEvent>(events.data(), events.size()))
          .ok());

  WalkerOptions wopts;
  wopts.deadline = Deadline::Expired(&FakeNow);
  PrService::PersonalizedScratch scratch;
  std::vector<ScoredNode> ranked;
  PersonalizedWalkResult stats;
  Status s = service.PersonalizedTopKInto(3, 10, 2000, true, 7, wopts,
                                          &scratch, &ranked, &stats);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  // Short-circuited before the walk: no accumulation happened.
  EXPECT_EQ(stats.length, 0u);
  EXPECT_TRUE(ranked.empty());
}

TEST(QueryServiceDeadlineTest, GenerousDeadlineMatchesNoDeadline) {
  const std::size_t n = 200;
  PrEngine engine(n, TestMcOptions(), ShardedOptions{2, 2});
  PrService service(&engine);
  const auto events = InsertEvents(n, 1200, 23);
  ASSERT_TRUE(
      service.Ingest(std::span<const EdgeEvent>(events.data(), events.size()))
          .ok());

  std::vector<ScoredNode> plain;
  ASSERT_TRUE(service.PersonalizedTopK(3, 10, 2000, true, 7, &plain).ok());

  WalkerOptions wopts;
  wopts.deadline = Deadline::AfterMillis(60'000);
  PrService::PersonalizedScratch scratch;
  std::vector<ScoredNode> guarded;
  ASSERT_TRUE(service
                  .PersonalizedTopKInto(3, 10, 2000, true, 7, wopts,
                                        &scratch, &guarded)
                  .ok());
  ASSERT_EQ(guarded.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(guarded[i].node, plain[i].node);
    EXPECT_EQ(guarded[i].visits, plain[i].visits);
  }
}

// ---- ServingTier ----------------------------------------------------

struct TierFixture {
  TierFixture(std::size_t n, const ServingTierOptions& topt)
      : engine(n, TestMcOptions(), ShardedOptions{2, 2}),
        service(&engine),
        tier(&service, topt) {
    const auto events = InsertEvents(n, 6 * n, 31);
    EXPECT_TRUE(service
                    .Ingest(std::span<const EdgeEvent>(events.data(),
                                                       events.size()))
                    .ok());
  }
  PrEngine engine;
  PrService service;
  ServingTier<IncrementalPageRank> tier;
};

/// Collects responses and counts them; Wait blocks until `expected`
/// callbacks fired (the every-request-resolves oracle).
struct Collector {
  void Done(const Response& resp) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(resp);
    cv.notify_all();
  }
  std::function<void(const Response&)> Callback() {
    return [this](const Response& r) { Done(r); };
  }
  bool WaitFor(std::size_t expected, int timeout_ms) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return responses.size() >= expected; });
  }
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Response> responses;
};

ServingTierOptions SmallTierOptions() {
  ServingTierOptions topt;
  topt.num_workers = 2;
  topt.queue.capacity = 16;
  topt.queue.target_delay_ns = 2'000'000;
  topt.queue.shed_interval_ns = 10'000'000;
  return topt;
}

TEST(ServingTierTest, ServesAllThreeClassesAtFullFidelity) {
  TierFixture f(200, SmallTierOptions());
  Collector col;
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.cls = i == 0   ? QueryClass::kTopK
              : i == 1 ? QueryClass::kScore
                       : QueryClass::kPersonalized;
    req.node = static_cast<NodeId>(3 + i);
    req.walk_length = 1000;
    req.rng_seed = 7 + i;
    req.on_done = col.Callback();
    f.tier.Submit(std::move(req));
  }
  ASSERT_TRUE(col.WaitFor(3, 10'000));
  std::size_t with_payload = 0;
  for (const Response& r : col.responses) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.degrade, DegradeLevel::kFull);
    if (!r.topk.empty() || !r.ranked.empty() || r.score >= 0.0) {
      ++with_payload;
    }
  }
  EXPECT_EQ(with_payload, 3u);
  const auto outcomes = f.tier.outcomes();
  EXPECT_EQ(outcomes.admitted_full, 3u);
  EXPECT_EQ(outcomes.resolved(), f.tier.submitted());
}

TEST(ServingTierTest, ExpiredDeadlineResolvesAsDeadlineExceeded) {
  TierFixture f(200, SmallTierOptions());
  Collector col;
  Request req;
  req.cls = QueryClass::kPersonalized;
  req.node = 5;
  req.walk_length = 1000;
  req.deadline = Deadline::Expired();
  req.on_done = col.Callback();
  f.tier.Submit(std::move(req));
  ASSERT_TRUE(col.WaitFor(1, 10'000));
  EXPECT_TRUE(col.responses[0].status.IsDeadlineExceeded());
  EXPECT_EQ(f.tier.outcomes().deadline_expired, 1u);
}

// Stalled workers + a burst past capacity: every request resolves as
// admitted / degraded / shed / deadline-expired, the shed ones carry a
// retry-after hint, the queue never exceeds its bound, and answers
// served under pressure are labelled down the degradation ladder.
TEST(ServingTierTest, OverloadBurstShedsLabelsAndStaysBounded) {
  ServingTierOptions topt = SmallTierOptions();
  topt.num_workers = 1;
  topt.queue.capacity = 8;
  topt.reduce_depth_frac = 0.25;    // degrade early: depth >= 2
  topt.fallback_depth_frac = 0.625; // fallback at depth >= 5
  TierFixture f(200, topt);

  // Gate the single worker so the queue builds depth deterministically.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  f.tier.SetFaultHook([&](QueryClass) {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  });

  Collector col;
  const std::size_t burst = 24;  // 3× capacity
  for (std::size_t i = 0; i < burst; ++i) {
    Request req;
    req.cls = QueryClass::kPersonalized;
    req.node = static_cast<NodeId>(i % 100);
    req.walk_length = 2000;
    req.rng_seed = i;
    req.on_done = col.Callback();
    f.tier.Submit(std::move(req));
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
    gate_cv.notify_all();
  }
  ASSERT_TRUE(col.WaitFor(burst, 20'000));

  std::size_t ok_full = 0, ok_degraded = 0, shed = 0, expired = 0;
  for (const Response& r : col.responses) {
    if (r.status.ok()) {
      if (r.degraded()) {
        ++ok_degraded;
      } else {
        ++ok_full;
      }
    } else if (r.status.IsResourceExhausted()) {
      ++shed;
      EXPECT_GT(r.retry_after_ns, 0u);
    } else if (r.status.IsDeadlineExceeded()) {
      ++expired;
    } else {
      ADD_FAILURE() << "unexpected outcome: " << r.status.ToString();
    }
  }
  EXPECT_EQ(ok_full + ok_degraded + shed + expired, burst);
  // The burst was 3× capacity with a stalled worker: shedding happened.
  EXPECT_GT(shed, 0u);
  // Depth built past the ladder rungs while the worker was gated, so
  // pressure-era answers are labelled degraded.
  EXPECT_GT(ok_degraded, 0u);
  // The boundedness proof: the queue never grew past its capacity.
  EXPECT_LE(f.tier.queue_high_water(QueryClass::kPersonalized),
            f.tier.queue_capacity(QueryClass::kPersonalized));
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
}

// Slow-shard fault injection: personalized execution stalls 2ms per
// request (the stalled-dependency model), offered load keeps arriving
// open-loop. The service must never wedge — every request resolves,
// queues stay bounded, and the cheap classes keep being served.
TEST(ServingTierTest, SlowShardFaultInjectionNeverWedges) {
  ServingTierOptions topt = SmallTierOptions();
  topt.num_workers = 2;
  topt.queue.capacity = 8;
  topt.queue.target_delay_ns = 1'000'000;
  topt.queue.shed_interval_ns = 4'000'000;
  TierFixture f(200, topt);

  f.tier.SetFaultHook([](QueryClass cls) {
    if (cls == QueryClass::kPersonalized) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  Collector col;
  const std::size_t total = 120;
  for (std::size_t i = 0; i < total; ++i) {
    Request req;
    req.cls = i % 3 == 0 ? QueryClass::kPersonalized
              : i % 3 == 1 ? QueryClass::kTopK
                           : QueryClass::kScore;
    req.node = static_cast<NodeId>(i % 100);
    req.walk_length = 1000;
    req.rng_seed = i;
    req.deadline = Deadline::AfterMillis(200);
    req.on_done = col.Callback();
    f.tier.Submit(std::move(req));
    if (i % 8 == 7) std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  // No silent hangs: everything resolves well inside the deadline era.
  ASSERT_TRUE(col.WaitFor(total, 30'000));
  std::size_t cheap_served = 0;
  for (const Response& r : col.responses) {
    EXPECT_TRUE(r.status.ok() || r.status.IsResourceExhausted() ||
                r.status.IsDeadlineExceeded() || r.status.IsUnavailable())
        << r.status.ToString();
    if (r.status.ok() && r.ranked.empty()) ++cheap_served;
  }
  EXPECT_GT(cheap_served, 0u);
  for (QueryClass cls : {QueryClass::kTopK, QueryClass::kScore,
                         QueryClass::kPersonalized}) {
    EXPECT_LE(f.tier.queue_high_water(cls), f.tier.queue_capacity(cls));
  }
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
}

TEST(ServingTierTest, ShutdownResolvesBacklogAsUnavailable) {
  ServingTierOptions topt = SmallTierOptions();
  topt.num_workers = 1;
  TierFixture f(200, topt);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  f.tier.SetFaultHook([&](QueryClass) {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  });
  Collector col;
  for (std::size_t i = 0; i < 8; ++i) {
    Request req;
    req.cls = QueryClass::kScore;
    req.node = static_cast<NodeId>(i);
    req.on_done = col.Callback();
    f.tier.Submit(std::move(req));
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
    gate_cv.notify_all();
  }
  f.tier.Shutdown();
  ASSERT_TRUE(col.WaitFor(8, 10'000));
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
  // Submissions after shutdown resolve too (Unavailable), immediately.
  Request late;
  late.cls = QueryClass::kScore;
  late.on_done = col.Callback();
  f.tier.Submit(std::move(late));
  ASSERT_TRUE(col.WaitFor(9, 10'000));
  bool saw_unavailable_late = col.responses.back().status.IsUnavailable();
  EXPECT_TRUE(saw_unavailable_late);
}

// The shutdown-mislabel race, pinned deterministically: a Submit that
// passes the stopping_ check just before Close() lands must resolve
// Unavailable (shutdown — don't retry this server), not
// ResourceExhausted + retry hint (overload — back off and retry). The
// submit-race hook runs Shutdown() inside the exact window, so
// TryEnqueue sees a closed queue and the kClosed/kFull distinction is
// what routes the answer.
TEST(ServingTierTest, SubmitRacingCloseIsUnavailableNotOverloaded) {
  TierFixture f(200, SmallTierOptions());
  std::atomic<bool> fired{false};
  f.tier.SetSubmitRaceHook([&](QueryClass) {
    if (!fired.exchange(true)) f.tier.Shutdown();
  });
  Collector col;
  Request req;
  req.cls = QueryClass::kScore;
  req.node = 3;
  req.on_done = col.Callback();
  f.tier.Submit(std::move(req));
  ASSERT_TRUE(col.WaitFor(1, 10'000));
  const Response& r = col.responses[0];
  EXPECT_TRUE(r.status.IsUnavailable()) << r.status.ToString();
  EXPECT_FALSE(r.status.IsResourceExhausted());
  EXPECT_EQ(f.tier.outcomes().unavailable, 1u);
  EXPECT_EQ(f.tier.outcomes().shed, 0u);
}

// The degradation ladder must read the REQUEST'S OWN class queue
// capacity. With a small personalized queue next to huge cheap-class
// queues, a backlog that fills the personalized queue is deep relative
// to ITS capacity — under the old queues_[0] bug the fractions were
// computed against the 256-entry TopK capacity and no request ever
// degraded.
TEST(ServingTierTest, LadderUsesOwnClassCapacity) {
  ServingTierOptions topt = SmallTierOptions();
  topt.num_workers = 1;
  topt.queue.capacity = 256;  // kTopK / kScore (and the buggy divisor)
  topt.queue_capacity[static_cast<std::size_t>(QueryClass::kPersonalized)] =
      8;
  // Generous CoDel horizon so nothing sheds while the worker is gated.
  topt.queue.target_delay_ns = 50'000'000;
  topt.queue.shed_interval_ns = 200'000'000;
  TierFixture f(200, topt);

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool hook_entered = false;
  bool gate_open = false;
  f.tier.SetFaultHook([&](QueryClass) {
    std::unique_lock<std::mutex> lock(gate_mu);
    hook_entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  });

  Collector col;
  auto submit_one = [&](std::size_t i) {
    Request req;
    req.cls = QueryClass::kPersonalized;
    req.node = static_cast<NodeId>(i);
    req.walk_length = 2000;
    req.rng_seed = i;
    req.on_done = col.Callback();
    f.tier.Submit(std::move(req));
  };
  submit_one(0);
  {
    // The worker is inside the hook: request 0 is dequeued, so the
    // remaining 8 fill the personalized queue to exactly its capacity.
    std::unique_lock<std::mutex> lock(gate_mu);
    ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return hook_entered; }));
  }
  for (std::size_t i = 1; i < 9; ++i) submit_one(i);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
    gate_cv.notify_all();
  }
  ASSERT_TRUE(col.WaitFor(9, 20'000));
  std::size_t degraded = 0;
  for (const Response& r : col.responses) {
    if (r.status.ok() && r.degraded()) ++degraded;
  }
  // Depth 8 of capacity 8 is past both rungs (0.5 / 0.85); against the
  // buggy 256-entry capacity it is past neither.
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
}

// A dequeue-side (CoDel) shed must report the sojourn that doomed the
// request — the old worker loop dropped queue_ns on the kShed path and
// the response claimed zero queueing. Fake clocks end to end make the
// expected sojourn exact.
TEST(ServingTierTest, DequeueShedRecordsMeasuredSojourn) {
  g_fake_now.store(0);
  ServingTierOptions topt;
  topt.num_workers = 1;
  topt.queue.capacity = 16;
  topt.queue.target_delay_ns = 2'000'000;
  topt.queue.shed_interval_ns = 10'000'000;
  topt.queue.clock = &FakeNow;
  topt.clock = &FakeNow;
  TierFixture f(200, topt);

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool hook_entered = false;
  bool gate_open = false;
  f.tier.SetFaultHook([&](QueryClass) {
    std::unique_lock<std::mutex> lock(gate_mu);
    hook_entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  });

  Collector col;
  Request a;
  a.cls = QueryClass::kScore;
  a.node = 1;
  a.on_done = col.Callback();
  f.tier.Submit(std::move(a));
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return hook_entered; }));
  }
  // B enqueues at fake t=0 while the worker is wedged in A, then the
  // clock jumps past target + interval: B's next dequeue is a shed
  // carrying exactly that sojourn.
  Request b;
  b.cls = QueryClass::kScore;
  b.node = 2;
  b.on_done = col.Callback();
  f.tier.Submit(std::move(b));
  g_fake_now.store(13'000'000);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
    gate_cv.notify_all();
  }
  ASSERT_TRUE(col.WaitFor(2, 10'000));
  std::size_t ok = 0, shed = 0;
  for (const Response& r : col.responses) {
    if (r.status.ok()) {
      ++ok;
    } else if (r.status.IsResourceExhausted()) {
      ++shed;
      EXPECT_EQ(r.queue_ns, 13'000'000u);
      EXPECT_GT(r.retry_after_ns, 0u);
    }
  }
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(shed, 1u);
}

// The TSan stress (runs in the TSan CI job): concurrent admission,
// shedding and deadline expiry racing the frozen-view publish rotation
// — ingestion keeps publishing (count seqlocks + frozen segment views)
// while submitter threads pour mixed traffic with tight deadlines
// through the tier.
TEST(ServingTierTest, ConcurrentAdmissionRacingPublishRotation) {
  ServingTierOptions topt = SmallTierOptions();
  topt.num_workers = 2;
  topt.queue.capacity = 32;
  const std::size_t n = 300;
  TierFixture f(n, topt);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      auto edges = ErdosRenyi(n, 64, &rng);
      std::vector<EdgeEvent> window;
      window.reserve(edges.size());
      for (const Edge& e : edges) {
        window.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
      }
      // Rejected duplicates are fine — the publish rotation still runs.
      f.service
          .Ingest(std::span<const EdgeEvent>(window.data(), window.size()))
          .ok();
    }
  });

  constexpr std::size_t kPerThread = 150;
  constexpr std::size_t kThreads = 3;
  Collector col;
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Request req;
        req.cls = i % 4 == 0 ? QueryClass::kPersonalized
                  : i % 4 == 1 ? QueryClass::kTopK
                               : QueryClass::kScore;
        req.node = static_cast<NodeId>((t * 131 + i) % n);
        req.walk_length = 500;
        req.rng_seed = t * 1000 + i;
        // A mix of tight and comfortable deadlines so expiry races
        // admission and execution.
        req.deadline = i % 5 == 0 ? Deadline::AfterMicros(50)
                                  : Deadline::AfterMillis(100);
        req.on_done = col.Callback();
        f.tier.Submit(std::move(req));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  ASSERT_TRUE(col.WaitFor(kThreads * kPerThread, 60'000));
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
  for (const Response& r : col.responses) {
    EXPECT_TRUE(r.status.ok() || r.status.IsResourceExhausted() ||
                r.status.IsDeadlineExceeded() || r.status.IsUnavailable())
        << r.status.ToString();
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// An idle tier costs no CPU: its workers sleep on the condition
// variable until a Submit or Shutdown notifies them, with no polling
// timeout.
TEST(ServingTierTest, IdleWorkersSleepUntilWorkArrives) {
  TierFixture f(200, SmallTierOptions());
  f.service.Quiesce();
  Collector col;
  const auto submit_score = [&](NodeId node) {
    Request req;
    req.cls = QueryClass::kScore;
    req.node = node;
    req.on_done = col.Callback();
    f.tier.Submit(std::move(req));
  };
  submit_score(3);
  ASSERT_TRUE(col.WaitFor(1, 10'000));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const double cpu0 = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double idle_cpu_s = ProcessCpuSeconds() - cpu0;
  EXPECT_LT(idle_cpu_s, 0.005)
      << "an idle tier burned " << idle_cpu_s * 1e3 << " ms of CPU in 0.5 s";

  // Asleep, not gone: the next request still wakes a worker.
  submit_score(4);
  ASSERT_TRUE(col.WaitFor(2, 10'000));
  EXPECT_TRUE(col.responses[1].status.ok());
}

/// One request at a time: Submit, then block until its callback fires
/// or `timeout_ms` passes. Returns false on a timeout.
bool SubmitAndWait(ServingTier<IncrementalPageRank>* tier, Request req,
                   int timeout_ms, Status* status) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  req.on_done = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(mu);
    *status = r.status;
    done = true;
    cv.notify_all();
  };
  tier->Submit(std::move(req));
  std::unique_lock<std::mutex> lock(mu);
  if (cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                  [&] { return done; })) {
    return true;
  }
  // Leave no callback behind that refers to this frame: shutting down
  // answers every queued request (on this thread, so unlock first).
  lock.unlock();
  tier->Shutdown();
  lock.lock();
  cv.wait(lock, [&] { return done; });
  return false;
}

// Submit racing worker sleep: each request goes in just as the worker
// that answered the previous one heads back to sleep, and nothing else
// would wake a worker that missed it (workers wait without a timeout).
// Every request must still resolve, alone and with several submitters
// racing each other's wakeups.
TEST(ServingTierTest, SubmitRacingWorkerSleepResolvesEveryRequest) {
  TierFixture f(200, SmallTierOptions());
  f.service.Quiesce();
  const auto score = [](std::size_t i) {
    Request req;
    req.cls = QueryClass::kScore;
    req.node = static_cast<NodeId>(i % 200);
    return req;
  };
  for (std::size_t i = 0; i < 2000; ++i) {
    Status status;
    ASSERT_TRUE(SubmitAndWait(&f.tier, score(i), 10'000, &status))
        << "request " << i << " was never answered";
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> lost{0};
  std::atomic<std::size_t> failed{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < 500 && lost.load() == 0; ++i) {
        Status status;
        if (!SubmitAndWait(&f.tier, score(t * 500 + i), 10'000, &status)) {
          lost.fetch_add(1);
        } else if (!status.ok()) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(lost.load(), 0u) << "a request was never answered";
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
}

}  // namespace
}  // namespace fastppr
