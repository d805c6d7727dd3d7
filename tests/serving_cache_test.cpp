// The personalized read path's per-worker walk scratch and the
// epoch-keyed result cache (DESIGN.md §10). The load-bearing contracts:
//
//  * Scratch reuse — one dense walk scratch serves every personalized
//    request a worker executes, walks that abort mid-way included (a
//    deadline or a fetch budget leaves the arrays dirty). Every answer
//    equals the same query run on a freshly constructed scratch: same
//    nodes, same visit counts, same scores, same audited snapshot epochs.
//    Checked for both engines (PPR and SALSA) at the service layer, and
//    through one tier worker against direct service calls.
//  * Cache correctness — a hit is labelled (Response::cache_hit), equal
//    to the freshly executed answer, and reachable ONLY at the epoch it
//    was computed at: a publish rotation invalidates by construction
//    (the lookup key carries the current frozen epoch).
//
// The TSan stress at the bottom races tier serving + repeat-seed cache
// traffic against the ingest/publish rotation (runs in the TSan CI job
// alongside serving_test).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/generators.h"
#include "fastppr/serve/serving_tier.h"

namespace fastppr {
namespace {

using serve::DegradeLevel;
using serve::QueryClass;
using serve::Request;
using serve::Response;
using serve::ServingTier;
using serve::ServingTierOptions;

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

template <typename Engine>
struct ServiceFixture {
  ServiceFixture(std::size_t n, std::size_t m, uint64_t seed)
      : engine(n, TestMcOptions(), ShardedOptions{2, 2}), service(&engine) {
    const auto events = InsertEvents(n, m, seed);
    EXPECT_TRUE(service
                    .Ingest(std::span<const EdgeEvent>(events.data(),
                                                       events.size()))
                    .ok());
    service.Quiesce();
  }
  ShardedEngine<Engine> engine;
  QueryService<Engine> service;
};

// A clock that advances 1 µs on every read: a deadline of 32 µs on it
// expires after ~32 reads, i.e. mid-walk (as in serving_test's
// MidWalkCooperativeCancellation).
std::atomic<uint64_t> g_stepping_now{0};
uint64_t SteppingNow() {
  return g_stepping_now.fetch_add(1000, std::memory_order_relaxed);
}

template <typename Steps>
std::size_t TouchedNodes(const BasicWalkScratch<Steps>& s) {
  std::size_t touched = 0;
  for (const std::vector<NodeId>& visited : s.visited) {
    touched += visited.size();
  }
  return touched;
}

struct OracleQuery {
  NodeId seed = 0;
  std::size_t k = 10;
  uint64_t length = 0;
  bool exclude_friends = true;
  uint64_t rng_seed = 0;
};

// One scratch serves a sequence of PersonalizedTopKInto calls with mixed
// k, length and friend exclusion, interleaved with a walk cut short by a
// stepping-clock deadline and one cut short by a max_fetches budget.
// Each aborted walk leaves the scratch dirty, and the query after it
// reuses the aborted walk's seed, so a stale count, consumed-segment
// slot or exclusion flag would change its answer. Every answer must
// equal the same query on a freshly constructed scratch.
template <typename Engine>
void CheckReusedScratchMatchesFresh() {
  using Service = QueryService<Engine>;
  using Scratch = typename Service::PersonalizedScratch;
  ServiceFixture<Engine> f(200, 1400, 47);

  Scratch reused;
  std::size_t answered = 0;
  auto check_against_fresh = [&](const OracleQuery& q) {
    std::vector<ScoredNode> got;
    PersonalizedWalkResult got_stats;
    SnapshotInfo got_info;
    ASSERT_TRUE(f.service
                    .PersonalizedTopKInto(q.seed, q.k, q.length,
                                          q.exclude_friends, q.rng_seed,
                                          WalkerOptions(), &reused, &got,
                                          &got_stats, &got_info)
                    .ok());
    Scratch fresh;
    std::vector<ScoredNode> expected;
    PersonalizedWalkResult expected_stats;
    SnapshotInfo expected_info;
    ASSERT_TRUE(f.service
                    .PersonalizedTopKInto(q.seed, q.k, q.length,
                                          q.exclude_friends, q.rng_seed,
                                          WalkerOptions(), &fresh,
                                          &expected, &expected_stats,
                                          &expected_info)
                    .ok());
    EXPECT_EQ(got_info.min_epoch, got_info.max_epoch);
    EXPECT_EQ(got_info.min_epoch, expected_info.min_epoch);
    EXPECT_EQ(got_info.max_epoch, expected_info.max_epoch);
    EXPECT_EQ(got_stats.length, expected_stats.length);
    EXPECT_EQ(got_stats.fetches, expected_stats.fetches);
    EXPECT_EQ(got_stats.segments_used, expected_stats.segments_used);
    ASSERT_FALSE(expected.empty());
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].node, expected[i].node);
      EXPECT_EQ(got[i].visits, expected[i].visits);
      EXPECT_EQ(got[i].score, expected[i].score);  // bit-identical
    }
    ++answered;
  };

  check_against_fresh({3, 5, 800, true, 1000});
  check_against_fresh({34, 10, 1200, false, 1001});

  // Cut short mid-walk by the stepping-clock deadline.
  {
    g_stepping_now.store(0);
    WalkerOptions opts;
    opts.deadline = serve::Deadline::AfterNanos(32'000, &SteppingNow);
    std::vector<ScoredNode> ranked;
    PersonalizedWalkResult stats;
    const Status s = f.service.PersonalizedTopKInto(
        65, 10, 1'000'000, true, 1002, opts, &reused, &ranked, &stats);
    ASSERT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
    EXPECT_GT(stats.length, 0u);
    EXPECT_LT(stats.length, 1'000'000u);
    EXPECT_GT(TouchedNodes(reused), 0u);
  }
  check_against_fresh({65, 15, 800, true, 1003});
  check_against_fresh({96, 5, 1200, false, 1004});

  // Cut short by the fetch budget.
  {
    WalkerOptions opts;
    opts.max_fetches = 3;
    std::vector<ScoredNode> ranked;
    PersonalizedWalkResult stats;
    const Status s = f.service.PersonalizedTopKInto(
        127, 10, 100'000, false, 1005, opts, &reused, &ranked, &stats);
    ASSERT_TRUE(s.IsResourceExhausted()) << s.ToString();
    EXPECT_GT(TouchedNodes(reused), 0u);
  }
  check_against_fresh({127, 10, 1200, true, 1006});
  check_against_fresh({158, 15, 2000, false, 1007});
  EXPECT_EQ(answered, 6u);
}

TEST(PersonalizedScratchTest, PageRankReusedScratchMatchesFreshAfterAborts) {
  CheckReusedScratchMatchesFresh<IncrementalPageRank>();
}

TEST(PersonalizedScratchTest, SalsaReusedScratchMatchesFreshAfterAborts) {
  CheckReusedScratchMatchesFresh<IncrementalSalsa>();
}

// ---- tier-level -----------------------------------------------------

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
    service.Quiesce();
  }
  ShardedEngine<IncrementalPageRank> engine;
  QueryService<IncrementalPageRank> service;
  ServingTier<IncrementalPageRank> tier;
};

Request PersonalizedRequest(NodeId node, uint64_t rng_seed,
                            Collector* col) {
  Request req;
  req.cls = QueryClass::kPersonalized;
  req.node = node;
  req.k = 10;
  req.walk_length = 1500;
  req.rng_seed = rng_seed;
  req.on_done = col->Callback();
  return req;
}

// One worker serves every request on its one walk scratch, and every
// answer equals a direct service call on a fresh thread-local scratch:
// the tier-level half of the scratch-reuse contract.
TEST(ServingTierScratchTest, WorkerAnswersEqualDirectCalls) {
  ServingTierOptions topt;
  topt.num_workers = 1;
  topt.queue.capacity = 64;
  // Generous CoDel horizon: nothing queued may shed, however slowly the
  // sanitizer runs this.
  topt.queue.target_delay_ns = 500'000'000;
  topt.queue.shed_interval_ns = 2'000'000'000;
  const std::size_t n = 200;
  TierFixture f(n, topt);

  Collector col;
  const std::size_t total = 6;
  for (std::size_t i = 0; i < total; ++i) {
    f.tier.Submit(PersonalizedRequest(static_cast<NodeId>(3 + 17 * i),
                                      100 + i, &col));
  }
  ASSERT_TRUE(col.WaitFor(total, 20'000));
  // Each executed walk counts as a batch of one in both counters.
  EXPECT_EQ(f.tier.batches_executed(), total);
  EXPECT_EQ(f.tier.batched_requests(), total);

  for (std::size_t i = 0; i < total; ++i) {
    const NodeId node = static_cast<NodeId>(3 + 17 * i);
    const uint64_t rng_seed = 100 + i;
    // Match responses by replaying the request directly: answers are
    // keyed by (node, rng_seed) uniqueness of this test's traffic.
    std::vector<ScoredNode> expected;
    ASSERT_TRUE(f.service
                    .PersonalizedTopK(node, 10, 1500, true, rng_seed,
                                      &expected)
                    .ok());
    std::size_t matches = 0;
    for (const Response& r : col.responses) {
      if (r.ranked.size() != expected.size() || expected.empty()) continue;
      bool equal = true;
      for (std::size_t j = 0; j < expected.size(); ++j) {
        if (r.ranked[j].node != expected[j].node ||
            r.ranked[j].visits != expected[j].visits ||
            r.ranked[j].score != expected[j].score) {
          equal = false;
          break;
        }
      }
      if (equal) ++matches;
    }
    EXPECT_GE(matches, 1u) << "no tier response matched the direct answer "
                              "for node "
                           << node;
  }
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
}

// Miss → execute → insert; repeat → labelled hit with the identical
// payload, zero queue/service time, and the audited single-epoch
// snapshot. The tier's stats and the striped counters both move.
TEST(ResultCacheTierTest, CacheHitBypassesQueueAndIsLabelled) {
  ServingTierOptions topt;
  topt.num_workers = 2;
  const std::size_t n = 200;
  TierFixture f(n, topt);

  Collector col;
  f.tier.Submit(PersonalizedRequest(7, 42, &col));
  ASSERT_TRUE(col.WaitFor(1, 10'000));
  const Response first = col.responses[0];
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.degrade, DegradeLevel::kFull);
  ASSERT_FALSE(first.ranked.empty());

  f.tier.Submit(PersonalizedRequest(7, 42, &col));
  ASSERT_TRUE(col.WaitFor(2, 10'000));
  const Response& second = col.responses[1];
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.queue_ns, 0u);
  EXPECT_EQ(second.service_ns, 0u);
  EXPECT_EQ(second.snapshot.min_epoch, second.snapshot.max_epoch);
  EXPECT_EQ(second.snapshot.min_epoch, first.snapshot.min_epoch);
  ASSERT_EQ(second.ranked.size(), first.ranked.size());
  for (std::size_t i = 0; i < first.ranked.size(); ++i) {
    EXPECT_EQ(second.ranked[i].node, first.ranked[i].node);
    EXPECT_EQ(second.ranked[i].visits, first.ranked[i].visits);
    EXPECT_EQ(second.ranked[i].score, first.ranked[i].score);
  }
  const auto stats = f.tier.cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
  EXPECT_GE(stats.insertions, 1u);
  // Both submissions resolved (one admitted, one cache-admitted).
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
  EXPECT_EQ(f.tier.outcomes().admitted_full, 2u);
}

// The invalidation-by-construction proof: an entry cached at epoch E1
// is unreachable after the publish rotation moves the frozen view to
// E2 (the lookup key carries the CURRENT epoch), and the re-executed
// E2 answer repopulates the cache for subsequent hits at E2.
TEST(ResultCacheTierTest, PublishRotationInvalidatesByConstruction) {
  ServingTierOptions topt;
  topt.num_workers = 2;
  const std::size_t n = 200;
  TierFixture f(n, topt);

  const uint64_t e1 = f.service.frozen_epoch();
  Collector col;
  f.tier.Submit(PersonalizedRequest(9, 77, &col));
  ASSERT_TRUE(col.WaitFor(1, 10'000));
  ASSERT_TRUE(col.responses[0].status.ok());
  EXPECT_FALSE(col.responses[0].cache_hit);
  EXPECT_EQ(col.responses[0].snapshot.min_epoch, e1);

  // Warm: same key hits at E1.
  f.tier.Submit(PersonalizedRequest(9, 77, &col));
  ASSERT_TRUE(col.WaitFor(2, 10'000));
  EXPECT_TRUE(col.responses[1].cache_hit);

  // Rotate: a fresh window advances the frozen epoch.
  const auto events = InsertEvents(n, 900, 53);
  ASSERT_TRUE(
      f.service
          .Ingest(std::span<const EdgeEvent>(events.data(), events.size()))
          .ok());
  f.service.Quiesce();
  const uint64_t e2 = f.service.frozen_epoch();
  ASSERT_GT(e2, e1);

  // The E1 entry is unreachable: this is a miss that re-executes at E2.
  f.tier.Submit(PersonalizedRequest(9, 77, &col));
  ASSERT_TRUE(col.WaitFor(3, 10'000));
  const Response& rotated = col.responses[2];
  ASSERT_TRUE(rotated.status.ok()) << rotated.status.ToString();
  EXPECT_FALSE(rotated.cache_hit);
  EXPECT_EQ(rotated.snapshot.min_epoch, e2);
  EXPECT_EQ(rotated.snapshot.max_epoch, e2);

  // And the E2 insert serves the next repeat.
  f.tier.Submit(PersonalizedRequest(9, 77, &col));
  ASSERT_TRUE(col.WaitFor(4, 10'000));
  EXPECT_TRUE(col.responses[3].cache_hit);
  EXPECT_EQ(col.responses[3].snapshot.min_epoch, e2);
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
}

// The TSan stress (runs in the TSan CI job): tier workers + the
// epoch-keyed cache under repeat-seed traffic, racing the ingest/
// publish rotation. Every cache hit must be a well-formed OK answer
// with a single-epoch snapshot — a rotation may turn hits into misses,
// never serve a torn or mixed-epoch entry — and every submission
// resolves exactly once.
TEST(ResultCacheTierTest, ConcurrentCacheServingRacesIngest) {
  ServingTierOptions topt;
  topt.num_workers = 2;
  topt.queue.capacity = 64;
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
      f.service
          .Ingest(std::span<const EdgeEvent>(window.data(), window.size()))
          .ok();
    }
  });

  constexpr std::size_t kPerThread = 120;
  constexpr std::size_t kThreads = 3;
  Collector col;
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Request req;
        req.cls = QueryClass::kPersonalized;
        // Repeat-seed traffic: 8 distinct keys shared by all threads,
        // so hits race inserts race the rotation.
        req.node = static_cast<NodeId>((i % 8) * 7);
        req.k = 10;
        req.walk_length = 400;
        req.rng_seed = 5;  // part of the walk, NOT the cache key
        req.deadline = serve::Deadline::AfterMillis(200);
        req.on_done = col.Callback();
        f.tier.Submit(std::move(req));
        (void)t;
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
    if (r.cache_hit) {
      EXPECT_TRUE(r.status.ok());
      EXPECT_EQ(r.snapshot.min_epoch, r.snapshot.max_epoch);
      EXPECT_FALSE(r.ranked.empty());
    }
  }
}

}  // namespace
}  // namespace fastppr
