// Windowed ingestion (ApplyEvents / RepairWindow): 1-event windows must
// consume the identical RNG stream as the sequential path (same seed =>
// identical estimates), and multi-event windows with mixed
// inserts/deletes must leave the store consistent, including the
// outdegree-0 -> positive dangling-resume transition. The window
// coupling repairs the net change, so the edge cases below pin its
// netting: cancelling events, a source emptied and refilled in one
// window, and parallel copies.

#include <array>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/graph/generators.h"
#include "fastppr/store/arena_io.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/random.h"

namespace fastppr {
namespace {

DiGraph BuildGraph(std::size_t n, const std::vector<Edge>& edges) {
  DiGraph g(n);
  for (const Edge& e : edges) EXPECT_TRUE(g.AddEdge(e.src, e.dst).ok());
  return g;
}

/// The net delta of a window of one event kind, for store-level calls.
WindowDelta DeltaOf(const std::vector<Edge>& edges, EdgeEvent::Kind kind) {
  std::vector<EdgeEvent> events;
  for (const Edge& e : edges) events.push_back(EdgeEvent{kind, e});
  WindowDelta delta;
  delta.Build(events, WalkStore::kRepairsInEdges);
  return delta;
}

EdgeEvent Insert(NodeId u, NodeId v) {
  return EdgeEvent{EdgeEvent::Kind::kInsert, Edge{u, v}};
}
EdgeEvent Delete(NodeId u, NodeId v) {
  return EdgeEvent{EdgeEvent::Kind::kDelete, Edge{u, v}};
}

/// An engine's SaveTo bytes: its walk store, then its event-loop RNG
/// state, then its stats and arrival/removal counters.
template <typename Engine>
std::vector<uint8_t> EngineBytes(const Engine& engine) {
  ArenaWriter w;
  engine.SaveTo(&w);
  return w.TakeBuffer();
}

/// The walk store plus the event-loop RNG state: EngineBytes up to the
/// counters, which legitimately differ between engines that applied
/// different (but net-equal) windows.
template <typename Engine>
std::vector<uint8_t> WalksAndRng(const Engine& engine) {
  ArenaWriter store;
  engine.walk_store().SaveTo(&store);
  std::vector<uint8_t> bytes = EngineBytes(engine);
  bytes.resize(store.buffer().size() + sizeof(std::array<uint64_t, 4>));
  return bytes;
}

/// A reproducible mixed stream: inserts from a shuffled power-law edge
/// list, interleaved with deletions of already-inserted edges.
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

TEST(BatchedUpdateTest, OneElementBatchesMatchSequentialPageRank) {
  const std::size_t n = 200;
  const auto events = MixedStream(n, 7, 0.15);

  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.2;
  mc.seed = 99;
  IncrementalPageRank sequential(n, mc);
  IncrementalPageRank batched(n, mc);

  for (const EdgeEvent& ev : events) {
    ASSERT_TRUE(sequential.ApplyEvent(ev).ok());
    ASSERT_TRUE(batched.ApplyEvents(std::span<const EdgeEvent>(&ev, 1))
                    .ok());
  }
  sequential.CheckConsistency();
  batched.CheckConsistency();

  // Same seed, same RNG stream: estimates must match bit for bit.
  const auto a = sequential.NormalizedEstimates();
  const auto b = batched.NormalizedEstimates();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t v = 0; v < a.size(); ++v) EXPECT_EQ(a[v], b[v]);
  EXPECT_EQ(sequential.lifetime_stats().walk_steps,
            batched.lifetime_stats().walk_steps);
  EXPECT_EQ(sequential.arrivals(), batched.arrivals());
  EXPECT_EQ(sequential.removals(), batched.removals());
}

TEST(BatchedUpdateTest, OneElementBatchesMatchSequentialSalsa) {
  const std::size_t n = 150;
  const auto events = MixedStream(n, 11, 0.1);

  MonteCarloOptions mc;
  mc.walks_per_node = 2;
  mc.epsilon = 0.25;
  mc.seed = 17;
  IncrementalSalsa sequential(n, mc);
  IncrementalSalsa batched(n, mc);

  for (const EdgeEvent& ev : events) {
    ASSERT_TRUE(sequential.ApplyEvent(ev).ok());
    ASSERT_TRUE(batched.ApplyEvents(std::span<const EdgeEvent>(&ev, 1))
                    .ok());
  }
  sequential.CheckConsistency();
  batched.CheckConsistency();

  for (NodeId v = 0; v < n; ++v) {
    for (uint32_t side : {0u, 1u}) {
      EXPECT_EQ(sequential.NormalizedEstimate(v, side),
                batched.NormalizedEstimate(v, side));
    }
  }
  EXPECT_EQ(sequential.lifetime_stats().walk_steps,
            batched.lifetime_stats().walk_steps);
}

TEST(BatchedUpdateTest, MultiEventBatchesStayConsistentPageRank) {
  const std::size_t n = 120;
  const auto events = MixedStream(n, 23, 0.2);

  MonteCarloOptions mc;
  mc.walks_per_node = 4;
  mc.epsilon = 0.2;
  mc.seed = 5;
  IncrementalPageRank engine(n, mc);

  // Mixed-kind batches of varying size: every batch must leave the store
  // consistent, and the estimates must still sum to 1.
  std::size_t i = 0;
  std::size_t batch_size = 1;
  while (i < events.size()) {
    const std::size_t hi = std::min(events.size(), i + batch_size);
    ASSERT_TRUE(engine
                    .ApplyEvents(std::span<const EdgeEvent>(
                        events.data() + i, hi - i))
                    .ok());
    engine.CheckConsistency();
    i = hi;
    batch_size = batch_size * 2 + 1;  // 1, 3, 7, 15, ... mixed runs
  }
  double sum = 0.0;
  for (double e : engine.NormalizedEstimates()) sum += e;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(engine.arrivals() - engine.removals(), engine.num_edges());
}

TEST(BatchedUpdateTest, MultiEventBatchesStayConsistentSalsa) {
  const std::size_t n = 100;
  const auto events = MixedStream(n, 31, 0.2);

  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.25;
  mc.seed = 6;
  IncrementalSalsa engine(n, mc);

  std::size_t i = 0;
  while (i < events.size()) {
    const std::size_t hi = std::min(events.size(), i + 64);
    ASSERT_TRUE(engine
                    .ApplyEvents(std::span<const EdgeEvent>(
                        events.data() + i, hi - i))
                    .ok());
    engine.CheckConsistency();
    i = hi;
  }
}

TEST(BatchedUpdateTest, BatchDanglingResumeOutdegreeZeroToPositive) {
  // Node 0 starts with no out-edge, so many segments dangle at it; a
  // single batch then gives it two out-edges at once. Every dangle must
  // resume (through either new edge) within that one batch.
  const std::size_t n = 6;
  std::vector<Edge> initial;
  for (NodeId u = 1; u < n; ++u) {
    initial.push_back(Edge{u, 0});
    initial.push_back(Edge{u, static_cast<NodeId>(u % (n - 1) + 1)});
  }
  DiGraph g = BuildGraph(n, initial);
  WalkStore store;
  store.Init(g, /*walks_per_node=*/50, /*epsilon=*/0.2, /*seed=*/3);
  ASSERT_GT(store.DanglingCount(0), 0u);

  const std::vector<Edge> batch{Edge{0, 1}, Edge{0, 2}};
  for (const Edge& e : batch) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  Rng rng(4);
  const WalkUpdateStats stats = store.RepairWindow(
      g, DeltaOf(batch, EdgeEvent::Kind::kInsert), &rng);
  store.CheckConsistency(g);
  EXPECT_EQ(store.DanglingCount(0), 0u);
  EXPECT_EQ(stats.store_called, 1u);
  EXPECT_GT(stats.segments_updated, 0u);

  // Resumed steps land uniformly on the two new targets: both must be
  // chosen at least once across the ~hundreds of resumed segments.
  std::size_t to1 = 0, to2 = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t k = 0; k < store.walks_per_node(); ++k) {
      const auto seg = store.GetSegment(u, k);
      for (std::size_t p = 0; p + 1 < seg.size(); ++p) {
        if (seg.node(p) != 0) continue;
        if (seg.node(p + 1) == 1) ++to1;
        if (seg.node(p + 1) == 2) ++to2;
      }
    }
  }
  EXPECT_GT(to1, 0u);
  EXPECT_GT(to2, 0u);
}

TEST(BatchedUpdateTest, SameSourceGroupMultiInsert) {
  // k inserts from one source in a single batch: one Binomial draw, hops
  // land uniformly on the new targets; the store must stay consistent.
  Rng gen_rng(41);
  auto edges = ErdosRenyi(60, 400, &gen_rng);
  DiGraph g = BuildGraph(60, edges);
  WalkStore store;
  store.Init(g, 10, 0.2, 13);

  const std::vector<Edge> batch{Edge{5, 50}, Edge{5, 51}, Edge{5, 52},
                                Edge{5, 53}};
  for (const Edge& e : batch) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  Rng rng(14);
  store.RepairWindow(g, DeltaOf(batch, EdgeEvent::Kind::kInsert), &rng);
  store.CheckConsistency(g);
  double sum = 0.0;
  for (double e : store.NormalizedEstimates()) sum += e;
  EXPECT_NEAR(sum, 1.0, 1e-9);

  // And a same-source multi-delete batch undoes them consistently.
  for (const Edge& e : batch) ASSERT_TRUE(g.RemoveEdge(e.src, e.dst).ok());
  store.RepairWindow(g, DeltaOf(batch, EdgeEvent::Kind::kDelete), &rng);
  store.CheckConsistency(g);
}

TEST(BatchedUpdateTest, ApplyEventsFailureRepairsAppliedPrefix) {
  const std::size_t n = 50;
  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.2;
  mc.seed = 8;
  IncrementalPageRank engine(n, mc);

  // Fourth event is invalid (node out of range): the mixed-kind prefix
  // before it must still be applied and repaired as one window, the
  // event after it must not be applied, and the engine must stay
  // consistent.
  const std::vector<EdgeEvent> events{
      Insert(1, 2),
      Insert(2, 3),
      Delete(1, 2),
      Insert(static_cast<NodeId>(n + 5), 3),
      Insert(4, 5),
  };
  EXPECT_FALSE(engine.ApplyEvents(events).ok());
  engine.CheckConsistency();
  EXPECT_EQ(engine.num_edges(), 1u);
  EXPECT_EQ(engine.arrivals(), 2u);
  EXPECT_EQ(engine.removals(), 1u);
  EXPECT_EQ(engine.arrivals() - engine.removals(), engine.num_edges());
  EXPECT_TRUE(engine.graph().HasEdge(2, 3));
  EXPECT_FALSE(engine.graph().HasEdge(1, 2));
  EXPECT_FALSE(engine.graph().HasEdge(4, 5));
}

MonteCarloOptions EdgeCaseOptions() {
  MonteCarloOptions mc;
  mc.walks_per_node = 20;
  mc.epsilon = 0.2;
  mc.seed = 77;
  return mc;
}

/// A graph with walks through every node: node u has out-edges to u+1
/// and u+2 (mod n), so node 0 is visited by many stored steps.
DiGraph RingGraph(std::size_t n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    edges.push_back(Edge{u, static_cast<NodeId>((u + 1) % n)});
    edges.push_back(Edge{u, static_cast<NodeId>((u + 2) % n)});
  }
  return BuildGraph(n, edges);
}

template <typename Engine>
void InsertThenDeleteLeavesWalksAndRngUntouched() {
  const DiGraph g = RingGraph(12);
  Engine cancelled(g, EdgeCaseOptions());
  const Engine untouched(g, EdgeCaseOptions());
  // (0, 7) is a new edge: inserting and deleting it nets to nothing, so
  // the window repairs nothing and draws no randomness.
  const std::vector<EdgeEvent> window{Insert(0, 7), Delete(0, 7)};
  ASSERT_TRUE(cancelled.ApplyEvents(window).ok());
  cancelled.CheckConsistency();
  EXPECT_EQ(WalksAndRng(cancelled), WalksAndRng(untouched));
  EXPECT_EQ(cancelled.last_event_stats().segments_updated, 0u);
  EXPECT_EQ(cancelled.arrivals(), 1u);
  EXPECT_EQ(cancelled.removals(), 1u);
}

TEST(BatchedUpdateTest, InsertThenDeleteSameEdgeIsANoOpPageRank) {
  InsertThenDeleteLeavesWalksAndRngUntouched<IncrementalPageRank>();
}

TEST(BatchedUpdateTest, InsertThenDeleteSameEdgeIsANoOpSalsa) {
  InsertThenDeleteLeavesWalksAndRngUntouched<IncrementalSalsa>();
}

template <typename Engine>
std::unique_ptr<Engine> EmptyAndRefillSource() {
  auto engine = std::make_unique<Engine>(RingGraph(12), EdgeCaseOptions());
  // Node 0 loses both out-edges and gains two new ones in one window,
  // interleaved: it is never dangling before or after the window, so no
  // segment may end dangling at it, and every stored step from it must
  // use a new edge (CheckConsistency audits both).
  const std::vector<EdgeEvent> window{Insert(0, 5), Delete(0, 1),
                                      Insert(0, 9), Delete(0, 2)};
  EXPECT_TRUE(engine->ApplyEvents(window).ok());
  engine->CheckConsistency();
  EXPECT_EQ(engine->graph().OutDegree(0), 2u);
  EXPECT_GT(engine->last_event_stats().segments_updated, 0u);
  return engine;
}

TEST(BatchedUpdateTest, EmptiedAndRefilledSourceEndsConsistentPageRank) {
  const auto engine = EmptyAndRefillSource<IncrementalPageRank>();
  EXPECT_EQ(engine->walk_store().DanglingCount(0), 0u);
  EXPECT_GT(engine->walk_store().StepVisitCount(0), 0u);
}

TEST(BatchedUpdateTest, EmptiedAndRefilledSourceEndsConsistentSalsa) {
  EmptyAndRefillSource<IncrementalSalsa>();
}

template <typename Engine>
void ParallelCopiesNetToOneInsert() {
  // Node 0's only out-edges are two copies of (0, 1), and those are
  // node 1's only in-edges, so every slot order over them is the same
  // and the two engines below share one graph layout.
  const std::size_t n = 8;
  std::vector<Edge> edges{Edge{0, 1}, Edge{0, 1}};
  for (NodeId u = 1; u < n; ++u) {
    edges.push_back(Edge{u, 0});
    edges.push_back(Edge{u, u + 1 < n ? u + 1 : NodeId{2}});
  }
  const DiGraph g = BuildGraph(n, edges);
  Engine mixed(g, EdgeCaseOptions());
  Engine single(g, EdgeCaseOptions());
  // One delete and two inserts of (0, 1): one net new copy.
  ASSERT_TRUE(mixed
                  .ApplyEvents(std::vector<EdgeEvent>{
                      Delete(0, 1), Insert(0, 1), Insert(0, 1)})
                  .ok());
  ASSERT_TRUE(
      single.ApplyEvents(std::vector<EdgeEvent>{Insert(0, 1)}).ok());
  mixed.CheckConsistency();
  EXPECT_EQ(mixed.graph().OutDegree(0), 3u);
  EXPECT_EQ(WalksAndRng(mixed), WalksAndRng(single));
  EXPECT_EQ(mixed.arrivals(), 2u);
  EXPECT_EQ(mixed.removals(), 1u);
}

TEST(BatchedUpdateTest, ParallelCopiesNetToOneInsertPageRank) {
  ParallelCopiesNetToOneInsert<IncrementalPageRank>();
}

TEST(BatchedUpdateTest, ParallelCopiesNetToOneInsertSalsa) {
  ParallelCopiesNetToOneInsert<IncrementalSalsa>();
}

}  // namespace
}  // namespace fastppr
