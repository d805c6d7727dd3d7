// Sharded parallel engine + query service (src/fastppr/engine/):
//  * determinism contract — a 1-shard engine is bit-identical to the flat
//    engine on a mixed insert/delete stream, and a fixed shard count is
//    invariant across worker thread counts;
//  * partition invariants — every source node is owned by exactly one
//    shard's walk store;
//  * shared-graph invariants — all shards read the engine's one
//    epoch-versioned DiGraph (no repair replica), and the epoch only
//    moves in ingest phases;
//  * the seqlock snapshot buffers stay coherent under concurrent
//    reader/writer load;
//  * personalized queries through the frozen snapshot views match the
//    flat walker bit for bit at every frozen epoch, and run concurrently
//    with live ingestion (the PR 4 segment-snapshot serving path; this
//    file is the TSan CI job's target, so those stress tests run under
//    ThreadSanitizer on every push);
//  * the pipelined execution model needs no second mode as its oracle:
//    at S=1 it matches the flat PageRank and SALSA engines after every
//    window, an engine fed back to back ends with the same
//    SerializeState() as one drained after every window (S=4, two
//    thread counts), and the three overlapped stages survive a TSan
//    stress run against PersonalizedTopK readers with a mid-pipeline
//    durability quiesce + bit-identical Recover (the `*Pipelined*`
//    filter the CI TSan job runs at FASTPPR_STRESS_THREADS).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/ppr_walker.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/engine/thread_pool.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/shard.h"

namespace fastppr {
namespace {

MonteCarloOptions Opts(std::size_t R, double eps, uint64_t seed) {
  MonteCarloOptions o;
  o.walks_per_node = R;
  o.epsilon = eps;
  o.seed = seed;
  return o;
}

/// A reproducible mixed stream: inserts from a shuffled power-law edge
/// list, interleaved with deletions of already-inserted edges (same
/// recipe as batched_update_test).
std::vector<EdgeEvent> MixedStream(std::size_t n, uint64_t seed,
                                   double p_delete) {
  Rng rng(seed);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = 4;
  auto edges = PreferentialAttachment(gen, &rng);
  rng.Shuffle(&edges);

  std::vector<EdgeEvent> events;
  std::vector<Edge> live;
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
    live.push_back(e);
    if (live.size() > 10 && rng.Bernoulli(p_delete)) {
      const std::size_t at = rng.UniformIndex(live.size());
      events.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, live[at]});
      live[at] = live.back();
      live.pop_back();
    }
  }
  return events;
}

/// Streams `events` through `apply` in windows of growing size (1, 3, 7,
/// 15, ... — mixed-kind windows included).
template <typename ApplyFn>
void StreamWindows(const std::vector<EdgeEvent>& events,
                   const ApplyFn& apply) {
  std::size_t i = 0;
  std::size_t window = 1;
  while (i < events.size()) {
    const std::size_t hi = std::min(events.size(), i + window);
    apply(std::span<const EdgeEvent>(events.data() + i, hi - i));
    i = hi;
    window = window * 2 + 1;
  }
}

/// Blocks until the reader threads have completed a first read (or 10 s
/// passed, should a reader have failed), so the writer's stream overlaps
/// live readers however fast ingestion runs and however a loaded
/// scheduler orders the threads.
void AwaitFirstRead(const std::atomic<uint64_t>& reads) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reads.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), std::max<std::size_t>(threads, 1));
    for (int round = 0; round < 3; ++round) {
      std::vector<std::atomic<int>> hits(101);
      pool.ParallelFor(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (const auto& h : hits) {
        EXPECT_EQ(h.load(std::memory_order_relaxed), 1);
      }
    }
    pool.ParallelFor(0, [](std::size_t) { FAIL(); });
  }
}

TEST(ShardPartitionTest, EverySourceOwnedByExactlyOneShard) {
  const std::size_t n = 197;
  const std::size_t S = 4;
  ShardedEngine<IncrementalPageRank> engine(n, Opts(2, 0.2, 5),
                                            ShardedOptions{S, 2});
  std::size_t owned_total = 0;
  for (std::size_t s = 0; s < S; ++s) {
    const WalkStore& store = engine.shard(s).walk_store();
    owned_total += store.owned_sources();
    for (NodeId u = 0; u < n; ++u) {
      const bool owns = ShardOfNode(u, S) == s;
      EXPECT_EQ(store.OwnsSource(u), owns);
      EXPECT_EQ(store.GetSegment(u, 0).empty(), !owns);
    }
  }
  EXPECT_EQ(owned_total, n);
  engine.CheckConsistency();
}

TEST(ShardedEngineTest, OneShardMatchesFlatPageRankBitForBit) {
  const std::size_t n = 200;
  const auto events = MixedStream(n, 7, 0.15);
  const MonteCarloOptions mc = Opts(3, 0.2, 99);

  IncrementalPageRank flat(n, mc);
  ShardedEngine<IncrementalPageRank> sharded(n, mc, ShardedOptions{1, 2});

  StreamWindows(events, [&](std::span<const EdgeEvent> w) {
    ASSERT_TRUE(flat.ApplyEvents(w).ok());
    ASSERT_TRUE(sharded.ApplyEvents(w).ok());
  });
  flat.CheckConsistency();
  sharded.CheckConsistency();

  const std::vector<int64_t> merged = sharded.MergedRankingCounts();
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(merged[v], flat.walk_store().VisitCount(v));
  }
  EXPECT_EQ(sharded.MergedRankingTotal(), flat.walk_store().TotalVisits());
  EXPECT_EQ(sharded.lifetime_stats().walk_steps,
            flat.lifetime_stats().walk_steps);
  EXPECT_EQ(sharded.TopK(10), flat.TopK(10));
  EXPECT_EQ(sharded.arrivals(), flat.arrivals());
  EXPECT_EQ(sharded.removals(), flat.removals());
}

TEST(ShardedEngineTest, OneShardMatchesFlatSalsaBitForBit) {
  const std::size_t n = 150;
  const auto events = MixedStream(n, 11, 0.1);
  const MonteCarloOptions mc = Opts(2, 0.25, 17);

  IncrementalSalsa flat(n, mc);
  ShardedEngine<IncrementalSalsa> sharded(n, mc, ShardedOptions{1, 2});

  StreamWindows(events, [&](std::span<const EdgeEvent> w) {
    ASSERT_TRUE(flat.ApplyEvents(w).ok());
    ASSERT_TRUE(sharded.ApplyEvents(w).ok());
  });
  flat.CheckConsistency();
  sharded.CheckConsistency();

  const std::vector<int64_t> merged = sharded.MergedRankingCounts();
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(merged[v], flat.walk_store().VisitCount(v, 1));
  }
  EXPECT_EQ(sharded.lifetime_stats().walk_steps,
            flat.lifetime_stats().walk_steps);
  EXPECT_EQ(sharded.TopK(10), flat.TopK(10));
}

TEST(ShardedEngineTest, FourShardsInvariantAcrossThreadCounts) {
  const std::size_t n = 160;
  const auto events = MixedStream(n, 23, 0.2);
  const MonteCarloOptions mc = Opts(3, 0.2, 41);

  std::vector<std::vector<int64_t>> counts;
  std::vector<uint64_t> steps;
  for (std::size_t threads : {1u, 2u, 4u}) {
    ShardedEngine<IncrementalPageRank> engine(n, mc,
                                              ShardedOptions{4, threads});
    StreamWindows(events, [&](std::span<const EdgeEvent> w) {
      ASSERT_TRUE(engine.ApplyEvents(w).ok());
    });
    engine.CheckConsistency();
    counts.push_back(engine.MergedRankingCounts());
    steps.push_back(engine.lifetime_stats().walk_steps);
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);
  EXPECT_EQ(steps[0], steps[1]);
  EXPECT_EQ(steps[0], steps[2]);
}

TEST(ShardedEngineTest, ShardsShareOneGraph) {
  // All S shards read the engine's ONE epoch-versioned DiGraph — the
  // graph the caller mutates: no per-shard graph replicas and no repair
  // replica, so graph memory is paid once.
  const std::size_t n = 120;
  const std::size_t S = 4;
  ShardedEngine<IncrementalPageRank> engine(n, Opts(2, 0.2, 3),
                                            ShardedOptions{S, 2});
  for (std::size_t s = 0; s < S; ++s) {
    EXPECT_EQ(&engine.shard(s).graph(), &engine.graph());
  }
  EXPECT_GT(engine.GraphMemoryBytes(), 0u);
  EXPECT_EQ(engine.RepairReplicaBytes(), 0u);

  const auto events = MixedStream(n, 77, 0.2);
  const uint64_t epoch_before = engine.graph().epoch();
  StreamWindows(events, [&](std::span<const EdgeEvent> w) {
    ASSERT_TRUE(engine.ApplyEvents(w).ok());
  });
  // Every successful mutation bumped the graph's epoch exactly once —
  // the single-writer contract's freeze token moved only in ingest
  // phases (a mutation during a parallel repair would have aborted).
  EXPECT_EQ(engine.graph().epoch(), epoch_before + events.size());
  EXPECT_EQ(engine.RepairReplicaBytes(), 0u);
  engine.CheckConsistency();
}

/// The S=1 half of the pipelined engine's oracle: after every window,
/// the 1-shard engine's merged counts, total and walk steps equal the
/// flat engine's, which runs the same window protocol on one thread.
template <typename Engine>
void ExpectOneShardMatchesFlatPerWindow(std::size_t n, uint64_t stream_seed,
                                        const MonteCarloOptions& mc) {
  const auto events = MixedStream(n, stream_seed, 0.2);
  Engine flat(n, mc);
  ShardedEngine<Engine> sharded(n, mc, ShardedOptions{1, 2});
  uint64_t epoch = 0;
  StreamWindows(events, [&](std::span<const EdgeEvent> w) {
    ASSERT_TRUE(flat.ApplyEvents(w).ok());
    ASSERT_TRUE(sharded.ApplyEvents(w).ok());
    ++epoch;
    const std::vector<int64_t> merged = sharded.MergedRankingCounts();
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(merged[v], flat.RankingCount(v))
          << "epoch=" << epoch << " v=" << v;
    }
    ASSERT_EQ(sharded.MergedRankingTotal(), flat.RankingTotal())
        << "epoch=" << epoch;
    ASSERT_EQ(sharded.lifetime_stats().walk_steps,
              flat.lifetime_stats().walk_steps)
        << "epoch=" << epoch;
    ASSERT_EQ(sharded.windows_applied(), epoch);
  });
  flat.CheckConsistency();
  sharded.CheckConsistency();
}

TEST(ShardedEngineTest, PipelinedOneShardMatchesFlatEnginesPerWindow) {
  ExpectOneShardMatchesFlatPerWindow<IncrementalPageRank>(150, 131,
                                                          Opts(3, 0.2, 71));
  ExpectOneShardMatchesFlatPerWindow<IncrementalSalsa>(120, 137,
                                                       Opts(2, 0.25, 73));
}

TEST(ShardedEngineTest, PipelinedBackToBackMatchesDrainedPerWindow) {
  // The execution-order half of the oracle: an engine fed back to back
  // (each ApplyEvents returns while its window may still be repairing
  // or publishing) ends bit-identical to one drained after every window
  // — same serialized graph slab, walk slabs, RNG streams, counters and
  // ledgers — at S=4, with the back-to-back engine at 1 and at 4 worker
  // threads against the drained one at 2.
  const std::size_t n = 150;
  const std::size_t S = 4;
  const auto events = MixedStream(n, 131, 0.2);
  const MonteCarloOptions mc = Opts(3, 0.2, 71);
  for (std::size_t threads : {1ul, 4ul}) {
    ShardedEngine<IncrementalPageRank> back_to_back(
        n, mc, ShardedOptions{S, threads});
    ShardedEngine<IncrementalPageRank> drained(n, mc, ShardedOptions{S, 2});
    uint64_t epoch = 0;
    StreamWindows(events, [&](std::span<const EdgeEvent> w) {
      ASSERT_TRUE(back_to_back.ApplyEvents(w).ok());
      ASSERT_TRUE(drained.ApplyEvents(w).ok());
      drained.Drain();
      ++epoch;
      ASSERT_EQ(drained.windows_applied(), epoch);
    });
    EXPECT_EQ(back_to_back.SerializeState(), drained.SerializeState())
        << "threads=" << threads;
    EXPECT_EQ(back_to_back.windows_applied(), epoch);
    back_to_back.CheckConsistency();
    drained.CheckConsistency();
    EXPECT_EQ(back_to_back.TopK(10), drained.TopK(10));
  }
}

TEST(ShardedEngineTest, SharedGraphEquivalenceOnMixedStream) {
  // The shared-graph acceptance fixture: S in {1, 4} over a mixed
  // insert/delete stream; any thread count must produce bit-identical
  // rankings, and S=1 must match the flat engine bit for bit.
  const std::size_t n = 180;
  const auto events = MixedStream(n, 101, 0.25);
  const MonteCarloOptions mc = Opts(3, 0.2, 55);

  IncrementalPageRank flat(n, mc);
  StreamWindows(events, [&](std::span<const EdgeEvent> w) {
    ASSERT_TRUE(flat.ApplyEvents(w).ok());
  });

  for (std::size_t S : {1ul, 4ul}) {
    std::vector<std::vector<int64_t>> counts;
    std::vector<std::vector<NodeId>> rankings;
    for (std::size_t threads : {1u, 2u, 4u}) {
      ShardedEngine<IncrementalPageRank> engine(
          n, mc, ShardedOptions{S, threads});
      StreamWindows(events, [&](std::span<const EdgeEvent> w) {
        ASSERT_TRUE(engine.ApplyEvents(w).ok());
      });
      engine.CheckConsistency();
      counts.push_back(engine.MergedRankingCounts());
      rankings.push_back(engine.TopK(15));
    }
    EXPECT_EQ(counts[0], counts[1]) << "S=" << S;
    EXPECT_EQ(counts[0], counts[2]) << "S=" << S;
    EXPECT_EQ(rankings[0], rankings[1]) << "S=" << S;
    EXPECT_EQ(rankings[0], rankings[2]) << "S=" << S;
    if (S == 1) {
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(counts[0][v], flat.walk_store().VisitCount(v));
      }
      EXPECT_EQ(rankings[0], flat.TopK(15));
    }
  }
}

TEST(ShardedEngineTest, FailedEventFailsIdenticallyInEveryShard) {
  const std::size_t n = 50;
  ShardedEngine<IncrementalPageRank> engine(n, Opts(3, 0.2, 8),
                                            ShardedOptions{3, 2});
  const std::vector<EdgeEvent> events{
      EdgeEvent{EdgeEvent::Kind::kInsert, Edge{1, 2}},
      EdgeEvent{EdgeEvent::Kind::kInsert,
                Edge{static_cast<NodeId>(n + 5), 3}},
      EdgeEvent{EdgeEvent::Kind::kInsert, Edge{2, 3}},
  };
  EXPECT_FALSE(engine.ApplyEvents(events).ok());
  engine.CheckConsistency();
  // The shared graph holds (and every shard repaired) the same
  // one-event prefix.
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    EXPECT_EQ(engine.shard(s).num_edges(), 1u);
    EXPECT_TRUE(engine.shard(s).graph().HasEdge(1, 2));
  }
}

TEST(QueryServiceTest, SnapshotsMatchEngineAfterIngest) {
  const std::size_t n = 150;
  const auto events = MixedStream(n, 31, 0.15);
  ShardedEngine<IncrementalPageRank> engine(n, Opts(3, 0.2, 12),
                                            ShardedOptions{3, 2});
  QueryService<IncrementalPageRank> service(&engine);

  EXPECT_EQ(service.published_epoch(), 0u);
  StreamWindows(events, [&](std::span<const EdgeEvent> w) {
    ASSERT_TRUE(service.Ingest(w).ok());
  });
  EXPECT_EQ(service.published_epoch(), engine.windows_applied());

  int64_t total = 0;
  SnapshotInfo info;
  const std::vector<int64_t> snap = service.SnapshotCounts(&total, &info);
  EXPECT_EQ(snap, engine.MergedRankingCounts());
  EXPECT_EQ(total, engine.MergedRankingTotal());
  EXPECT_EQ(info.min_epoch, info.max_epoch);
  EXPECT_EQ(service.TopK(10), engine.TopK(10));
  for (NodeId v : {NodeId{0}, NodeId{17}, NodeId{149}}) {
    const double expect =
        total == 0 ? 0.0
                   : static_cast<double>(snap[v]) /
                         static_cast<double>(total);
    EXPECT_DOUBLE_EQ(service.Score(v), expect);
  }
}

TEST(QueryServiceTest, ConcurrentReadersSeeCoherentSnapshots) {
  const std::size_t n = 120;
  const auto events = MixedStream(n, 43, 0.2);
  ShardedEngine<IncrementalPageRank> engine(n, Opts(2, 0.25, 77),
                                            ShardedOptions{3, 2});
  QueryService<IncrementalPageRank> service(&engine);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      int64_t total = 0;
      SnapshotInfo info;
      const std::vector<int64_t> snap =
          service.SnapshotCounts(&total, &info);
      // The merged (counts, total) pair comes from one coherent buffer
      // published at one epoch, so the sum always balances and the read
      // never mixes epochs — even while the writer publishes.
      int64_t sum = 0;
      for (int64_t c : snap) sum += c;
      ASSERT_EQ(sum, total);
      ASSERT_EQ(info.min_epoch, info.max_epoch);
      SnapshotInfo score_info;
      const double score = service.Score(
          static_cast<NodeId>(reads.load(std::memory_order_relaxed) % n),
          &score_info);
      ASSERT_EQ(score_info.min_epoch, score_info.max_epoch);
      ASSERT_GE(score, 0.0);
      ASSERT_LE(score, 1.0);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  AwaitFirstRead(reads);

  // Writer: ingest the stream in small windows (every window publishes).
  std::size_t i = 0;
  while (i < events.size()) {
    const std::size_t hi = std::min(events.size(), i + 16);
    ASSERT_TRUE(service
                    .Ingest(std::span<const EdgeEvent>(events.data() + i,
                                                       hi - i))
                    .ok());
    i = hi;
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_GT(reads.load(), 0u);
  engine.CheckConsistency();

  // Quiescent state: snapshots equal the engine.
  EXPECT_EQ(service.SnapshotCounts(), engine.MergedRankingCounts());
}

TEST(QueryServiceTest, PersonalizedTopKMatchesFlatWalkerAtOneShard) {
  const std::size_t n = 120;
  Rng rng(3);
  auto edges = ErdosRenyi(n, 900, &rng);
  const MonteCarloOptions mc = Opts(4, 0.2, 19);

  IncrementalPageRank flat(n, mc);
  ShardedEngine<IncrementalPageRank> sharded(n, mc, ShardedOptions{1, 2});
  QueryService<IncrementalPageRank> service(&sharded);
  std::vector<EdgeEvent> events;
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  ASSERT_TRUE(flat.ApplyEvents(events).ok());
  ASSERT_TRUE(service.Ingest(events).ok());
  service.Quiesce();  // pipelined publishes are async; wait for the flip

  PersonalizedPageRankWalker walker(&flat.walk_store(),
                                    &flat.graph());
  std::vector<ScoredNode> flat_ranked;
  PersonalizedWalkResult flat_walk;
  ASSERT_TRUE(walker
                  .TopK(5, 8, 4000, /*exclude_friends=*/true,
                        /*rng_seed=*/123, &flat_ranked, &flat_walk)
                  .ok());

  std::vector<ScoredNode> sharded_ranked;
  PersonalizedWalkResult sharded_walk;
  ASSERT_TRUE(service
                  .PersonalizedTopK(5, 8, 4000, /*exclude_friends=*/true,
                                    /*rng_seed=*/123, &sharded_ranked,
                                    &sharded_walk)
                  .ok());

  ASSERT_EQ(sharded_ranked.size(), flat_ranked.size());
  for (std::size_t i = 0; i < flat_ranked.size(); ++i) {
    EXPECT_EQ(sharded_ranked[i].node, flat_ranked[i].node);
    EXPECT_EQ(sharded_ranked[i].visits, flat_ranked[i].visits);
  }
  EXPECT_EQ(sharded_walk.length, flat_walk.length);
  EXPECT_EQ(sharded_walk.segments_used, flat_walk.segments_used);
}

TEST(QueryServiceTest, ScratchReadsMatchAllocatingReads) {
  const std::size_t n = 130;
  const auto events = MixedStream(n, 19, 0.15);
  ShardedEngine<IncrementalPageRank> engine(n, Opts(2, 0.2, 21),
                                            ShardedOptions{3, 2});
  QueryService<IncrementalPageRank> service(&engine);
  ASSERT_TRUE(service.Ingest(events).ok());
  // Ingest acks before the window is repaired and published: without
  // the barrier, the two reads compared below can straddle a publish.
  service.Quiesce();

  ReadScratch scratch;
  int64_t total_into = 0;
  int64_t total_alloc = 0;
  EXPECT_EQ(service.SnapshotCountsInto(&scratch, &total_into),
            service.SnapshotCounts(&total_alloc));
  EXPECT_EQ(total_into, total_alloc);
  EXPECT_EQ(service.TopKInto(10, &scratch), service.TopK(10));

  // Steady state: a warm scratch is never reallocated (the
  // allocation-free read-path contract).
  const int64_t* counts_data = scratch.counts.data();
  const NodeId* ranked_data = scratch.ranked.data();
  for (int round = 0; round < 3; ++round) {
    service.TopKInto(10, &scratch);
    EXPECT_EQ(scratch.counts.data(), counts_data);
    EXPECT_EQ(scratch.ranked.data(), ranked_data);
  }
}

TEST(QueryServiceTest, PersonalizedReadAtFrozenEpochMatchesFlatEngine) {
  // The determinism contract of the frozen views: at every window
  // boundary, a personalized read served from the snapshots must be
  // bit-identical to the flat engine's walker at the same epoch — same
  // ranking, same visit counts, same walk telemetry.
  const std::size_t n = 140;
  const auto events = MixedStream(n, 61, 0.2);
  const MonteCarloOptions mc = Opts(3, 0.2, 33);

  IncrementalPageRank flat(n, mc);
  ShardedEngine<IncrementalPageRank> sharded(n, mc, ShardedOptions{1, 2});
  QueryService<IncrementalPageRank> service(&sharded);

  std::size_t i = 0;
  std::size_t window = 1;
  uint64_t epoch = 0;
  while (i < events.size()) {
    const std::size_t hi = std::min(events.size(), i + window);
    const std::span<const EdgeEvent> w(events.data() + i, hi - i);
    ASSERT_TRUE(flat.ApplyEvents(w).ok());
    ASSERT_TRUE(service.Ingest(w).ok());
    service.Quiesce();
    ++epoch;

    const NodeId seed = static_cast<NodeId>((epoch * 37) % n);
    PersonalizedPageRankWalker walker(&flat.walk_store(),
                                      &flat.graph());
    std::vector<ScoredNode> flat_ranked;
    PersonalizedWalkResult flat_walk;
    ASSERT_TRUE(walker
                    .TopK(seed, 8, 3000, /*exclude_friends=*/true,
                          /*rng_seed=*/epoch, &flat_ranked, &flat_walk)
                    .ok());

    std::vector<ScoredNode> svc_ranked;
    PersonalizedWalkResult svc_walk;
    SnapshotInfo info;
    ASSERT_TRUE(service
                    .PersonalizedTopK(seed, 8, 3000,
                                      /*exclude_friends=*/true,
                                      /*rng_seed=*/epoch, &svc_ranked,
                                      &svc_walk, &info)
                    .ok());

    EXPECT_EQ(info.min_epoch, info.max_epoch);
    EXPECT_EQ(info.max_epoch, service.published_epoch());
    EXPECT_EQ(info.max_epoch, epoch);
    ASSERT_EQ(svc_ranked.size(), flat_ranked.size());
    for (std::size_t r = 0; r < flat_ranked.size(); ++r) {
      EXPECT_EQ(svc_ranked[r].node, flat_ranked[r].node);
      EXPECT_EQ(svc_ranked[r].visits, flat_ranked[r].visits);
    }
    EXPECT_EQ(svc_walk.length, flat_walk.length);
    EXPECT_EQ(svc_walk.segments_used, flat_walk.segments_used);
    EXPECT_EQ(svc_walk.manual_steps, flat_walk.manual_steps);
    EXPECT_EQ(svc_walk.resets, flat_walk.resets);
    EXPECT_EQ(svc_walk.fetches, flat_walk.fetches);

    i = hi;
    window = window * 2 + 1;
  }
}

/// Test-only live StoreView: routes (u, k) to the owning shard's live
/// walk store — the rows the global frozen segment table must reproduce
/// bit for bit.
class LiveShardedView {
 public:
  explicit LiveShardedView(const ShardedEngine<IncrementalPageRank>* e)
      : engine_(e) {}
  std::size_t walks_per_node() const {
    return engine_->shard(0).walk_store().walks_per_node();
  }
  double epsilon() const {
    return engine_->shard(0).walk_store().epsilon();
  }
  WalkStore::SegmentView GetSegment(NodeId u, std::size_t k) const {
    const auto S = static_cast<uint32_t>(engine_->num_shards());
    return engine_->shard(ShardOfNode(u, S)).walk_store().GetSegment(u, k);
  }

 private:
  const ShardedEngine<IncrementalPageRank>* engine_;
};

TEST(QueryServiceTest, DenseFrozenReadsMatchLiveShardedWalkerAtSOneAndFour) {
  // The global segment table: a personalized read served from the one
  // versioned table that holds every shard's segments at row
  // u * spn + k must be bit-identical to a walker over the LIVE sharded
  // stores at the same epoch — for S = 1 (where both also equal the
  // flat engine, covered elsewhere) and S = 4 (where the four shards'
  // repair plans write disjoint rows of the one table).
  const std::size_t n = 160;
  const auto events = MixedStream(n, 67, 0.2);
  const MonteCarloOptions mc = Opts(3, 0.2, 47);

  for (std::size_t S : {1ul, 4ul}) {
    ShardedEngine<IncrementalPageRank> engine(n, mc, ShardedOptions{S, 2});
    QueryService<IncrementalPageRank> service(&engine);

    std::size_t i = 0;
    std::size_t window = 1;
    uint64_t epoch = 0;
    while (i < events.size()) {
      const std::size_t hi = std::min(events.size(), i + window);
      ASSERT_TRUE(
          service
              .Ingest(std::span<const EdgeEvent>(events.data() + i,
                                                 hi - i))
              .ok());
      service.Quiesce();
      ++epoch;

      const NodeId seed = static_cast<NodeId>((epoch * 31 + S) % n);
      LiveShardedView live_view(&engine);
      BasicPersonalizedWalker<PageRankSteps, LiveShardedView, DiGraph>
          live_walker(&live_view, &engine.graph());
      std::vector<ScoredNode> live_ranked;
      PersonalizedWalkResult live_walk;
      ASSERT_TRUE(live_walker
                      .TopK(seed, 8, 2500, /*exclude_friends=*/true,
                            /*rng_seed=*/epoch * 7 + S, &live_ranked,
                            &live_walk)
                      .ok());

      std::vector<ScoredNode> svc_ranked;
      PersonalizedWalkResult svc_walk;
      SnapshotInfo info;
      ASSERT_TRUE(service
                      .PersonalizedTopK(seed, 8, 2500,
                                        /*exclude_friends=*/true,
                                        /*rng_seed=*/epoch * 7 + S,
                                        &svc_ranked, &svc_walk, &info)
                      .ok());

      ASSERT_EQ(info.min_epoch, info.max_epoch) << "S=" << S;
      ASSERT_EQ(info.max_epoch, epoch) << "S=" << S;
      ASSERT_EQ(svc_ranked.size(), live_ranked.size()) << "S=" << S;
      for (std::size_t r = 0; r < live_ranked.size(); ++r) {
        ASSERT_EQ(svc_ranked[r].node, live_ranked[r].node) << "S=" << S;
        ASSERT_EQ(svc_ranked[r].visits, live_ranked[r].visits)
            << "S=" << S;
      }
      ASSERT_EQ(svc_walk.length, live_walk.length) << "S=" << S;
      ASSERT_EQ(svc_walk.segments_used, live_walk.segments_used)
          << "S=" << S;
      ASSERT_EQ(svc_walk.manual_steps, live_walk.manual_steps)
          << "S=" << S;
      ASSERT_EQ(svc_walk.resets, live_walk.resets) << "S=" << S;

      i = hi;
      window = window * 2 + 1;
    }
  }
}

TEST(QueryServiceTest, DenseMapResolutionDuringPublishRotation) {
  // TSan target for the global segment table: reader threads resolve
  // every (node, segment) lookup through the table's row heads while
  // the pipeline thread publishes new versions into the same rows and
  // frees the versions no pin can reach any more. What this stresses is
  // that a reader pinned at one publish never sees a later version, nor
  // a version freed under it.
  const std::size_t n = 140;
  const auto events = MixedStream(n, 53, 0.2);
  ShardedEngine<IncrementalPageRank> engine(n, Opts(2, 0.25, 61),
                                            ShardedOptions{4, 2});
  QueryService<IncrementalPageRank> service(&engine);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  auto reader = [&](uint64_t salt) {
    uint64_t q = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<ScoredNode> ranked;
      SnapshotInfo info;
      const Status s = service.PersonalizedTopK(
          static_cast<NodeId>((salt + q * 11) % n), 6, 700,
          /*exclude_friends=*/q % 2 == 0, /*rng_seed=*/q * 3 + salt,
          &ranked, nullptr, &info);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(info.min_epoch, info.max_epoch);
      EXPECT_LE(info.max_epoch, service.published_epoch());
      ++q;
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader, 5);
  std::thread r2(reader, 37);
  AwaitFirstRead(reads);

  std::size_t i = 0;
  while (i < events.size()) {
    const std::size_t hi = std::min(events.size(), i + 12);
    ASSERT_TRUE(service
                    .Ingest(std::span<const EdgeEvent>(events.data() + i,
                                                       hi - i))
                    .ok());
    i = hi;
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_GT(reads.load(), 0u);
  service.Quiesce();
  engine.CheckConsistency();

  // Quiescent: one global table holds the four shards' rows, and the
  // final frozen read is bit-identical to the live sharded walker.
  const auto stats = service.FrozenStats();
  const std::size_t spn =
      engine.shard(0).walk_store().segments_per_node();
  EXPECT_EQ(stats.segment_rows, n * spn);
  EXPECT_EQ(stats.segment_rows_global_model, 4 * n * spn);
  LiveShardedView live_view(&engine);
  BasicPersonalizedWalker<PageRankSteps, LiveShardedView, DiGraph>
      live_walker(&live_view, &engine.graph());
  std::vector<ScoredNode> live_ranked;
  std::vector<ScoredNode> svc_ranked;
  ASSERT_TRUE(live_walker
                  .TopK(9, 6, 1500, /*exclude_friends=*/true,
                        /*rng_seed=*/99, &live_ranked, nullptr)
                  .ok());
  ASSERT_TRUE(service
                  .PersonalizedTopK(9, 6, 1500, /*exclude_friends=*/true,
                                    /*rng_seed=*/99, &svc_ranked)
                  .ok());
  ASSERT_EQ(svc_ranked.size(), live_ranked.size());
  for (std::size_t r = 0; r < live_ranked.size(); ++r) {
    EXPECT_EQ(svc_ranked[r].node, live_ranked[r].node);
    EXPECT_EQ(svc_ranked[r].visits, live_ranked[r].visits);
  }
}

TEST(QueryServiceTest, PersonalizedReadsConcurrentWithIngestion) {
  // N reader threads hammer PersonalizedTopK against the frozen views
  // while the writer streams a live mixed ingestion load — the
  // segment-snapshot serving path under ThreadSanitizer. Every read
  // must observe a single frozen epoch no newer than the last publish.
  const std::size_t n = 120;
  const auto events = MixedStream(n, 83, 0.2);
  ShardedEngine<IncrementalPageRank> engine(n, Opts(2, 0.25, 7),
                                            ShardedOptions{3, 2});
  QueryService<IncrementalPageRank> service(&engine);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  auto reader = [&](uint64_t salt) {
    uint64_t q = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<ScoredNode> ranked;
      SnapshotInfo info;
      const Status s = service.PersonalizedTopK(
          static_cast<NodeId>((salt + q * 13) % n), 5, 600,
          /*exclude_friends=*/q % 2 == 0, /*rng_seed=*/q ^ salt, &ranked,
          nullptr, &info);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(info.min_epoch, info.max_epoch);
      EXPECT_LE(info.max_epoch, service.published_epoch());
      ++q;
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader, 1);
  std::thread r2(reader, 29);
  AwaitFirstRead(reads);

  std::size_t i = 0;
  while (i < events.size()) {
    const std::size_t hi = std::min(events.size(), i + 16);
    ASSERT_TRUE(service
                    .Ingest(std::span<const EdgeEvent>(events.data() + i,
                                                       hi - i))
                    .ok());
    i = hi;
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_GT(reads.load(), 0u);
  engine.CheckConsistency();
}

TEST(QueryServiceTest, PersonalizedSalsaReadsConcurrentWithIngestion) {
  // The SALSA twin additionally exercises the frozen adjacency's
  // in-side (backward steps) under concurrent ingestion.
  const std::size_t n = 100;
  const auto events = MixedStream(n, 91, 0.15);
  ShardedEngine<IncrementalSalsa> engine(n, Opts(2, 0.25, 13),
                                         ShardedOptions{4, 2});
  QueryService<IncrementalSalsa> service(&engine);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  auto reader = [&](uint64_t salt) {
    uint64_t q = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<ScoredNode> ranked;
      SnapshotInfo info;
      const Status s = service.PersonalizedTopK(
          static_cast<NodeId>((salt + q * 17) % n), 5, 800,
          /*exclude_friends=*/true, /*rng_seed=*/q ^ salt, &ranked,
          nullptr, &info);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(info.min_epoch, info.max_epoch);
      ++q;
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader, 3);
  std::thread r2(reader, 71);
  AwaitFirstRead(reads);

  std::size_t i = 0;
  while (i < events.size()) {
    const std::size_t hi = std::min(events.size(), i + 16);
    ASSERT_TRUE(service
                    .Ingest(std::span<const EdgeEvent>(events.data() + i,
                                                       hi - i))
                    .ok());
    i = hi;
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_GT(reads.load(), 0u);
  engine.CheckConsistency();
}

TEST(QueryServiceTest, PersonalizedSalsaServesAcrossShards) {
  const std::size_t n = 100;
  Rng rng(9);
  auto edges = ErdosRenyi(n, 800, &rng);
  ShardedEngine<IncrementalSalsa> engine(n, Opts(3, 0.2, 29),
                                         ShardedOptions{4, 2});
  QueryService<IncrementalSalsa> service(&engine);
  std::vector<EdgeEvent> events;
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  ASSERT_TRUE(service.Ingest(events).ok());
  service.Quiesce();

  std::vector<ScoredNode> ranked;
  PersonalizedWalkResult walk;
  ASSERT_TRUE(service
                  .PersonalizedTopK(7, 5, 20000, /*exclude_friends=*/true,
                                    /*rng_seed=*/7, &ranked, &walk)
                  .ok());
  ASSERT_FALSE(ranked.empty());
  EXPECT_GT(walk.segments_used, 0u);
  // The walk consumed stored segments from more than one shard's store
  // (any node it fetched beyond the seed's shard).
  for (const ScoredNode& s : ranked) {
    EXPECT_NE(s.node, 7u);
    for (NodeId friend_node : engine.graph().OutNeighbors(7)) {
      EXPECT_NE(s.node, friend_node);
    }
  }
}

TEST(QueryServiceTest, PipelinedStressReadersAndMidPipelineRecovery) {
  // TSan target for the pipeline itself: the overlapped stages (caller
  // ingest, pool repair, the boundary's version publish) race against
  // PersonalizedTopK readers on the frozen views while the WAL logs
  // every window; a Checkpoint mid-stream quiesces the pipeline with
  // windows still in flight, and a post-hoc Recover must reproduce the
  // engine bit for bit (the crash-recovery oracle composed with the
  // pipeline). Reader count scales with FASTPPR_STRESS_THREADS (the CI
  // TSan job runs this filter at 4).
  const std::size_t n = 120;
  const auto events = MixedStream(n, 143, 0.2);
  std::size_t readers = 2;
  if (const char* env = std::getenv("FASTPPR_STRESS_THREADS")) {
    readers = std::max<std::size_t>(1, std::atoi(env));
  }
  // Per-process, so parallel runs of this binary never share it.
  const std::string dir = ::testing::TempDir() +
                          "/fastppr_pipelined_stress_ckpt_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  ShardedEngine<IncrementalPageRank> engine(n, Opts(2, 0.25, 83),
                                            ShardedOptions{4, 2});
  DurabilityOptions dopts;
  dopts.directory = dir;
  dopts.checkpoint_interval_windows = 0;  // explicit Checkpoint() only
  ASSERT_TRUE(engine.EnableDurability(dopts).ok());
  QueryService<IncrementalPageRank> service(&engine);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  auto reader = [&](uint64_t salt) {
    uint64_t q = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<ScoredNode> ranked;
      SnapshotInfo info;
      const Status s = service.PersonalizedTopK(
          static_cast<NodeId>((salt + q * 19) % n), 5, 600,
          /*exclude_friends=*/q % 2 == 0, /*rng_seed=*/q ^ salt, &ranked,
          nullptr, &info);
      EXPECT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(info.min_epoch, info.max_epoch);
      EXPECT_LE(info.max_epoch, service.published_epoch());
      ++q;
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(readers);
  for (std::size_t r = 0; r < readers; ++r) {
    pool.emplace_back(reader, 7 + 31 * r);
  }
  AwaitFirstRead(reads);

  std::size_t i = 0;
  std::size_t window_idx = 0;
  while (i < events.size()) {
    const std::size_t hi = std::min(events.size(), i + 12);
    ASSERT_TRUE(service
                    .Ingest(std::span<const EdgeEvent>(events.data() + i,
                                                       hi - i))
                    .ok());
    if (++window_idx == 7) {
      // Mid-pipeline quiesce: windows may still be in repair/publish
      // flight; Checkpoint must drain them and snapshot a boundary.
      ASSERT_TRUE(engine.Checkpoint().ok());
    }
    i = hi;
  }
  ASSERT_TRUE(engine.Checkpoint().ok());
  done.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  EXPECT_GT(reads.load(), 0u);
  service.Quiesce();
  engine.CheckConsistency();

  std::unique_ptr<ShardedEngine<IncrementalPageRank>> recovered;
  ASSERT_TRUE(ShardedEngine<IncrementalPageRank>::Recover(dir, 2,
                                                          &recovered)
                  .ok());
  EXPECT_EQ(recovered->SerializeState(), engine.SerializeState());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fastppr
