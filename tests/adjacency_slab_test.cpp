// DiGraph's slab layout (graph/digraph.h): the compact-encoding test
// layer —
//  * block grow/shrink/recycle through the quarter-spaced size classes,
//  * differential fuzz: long seeded mixed insert/remove/self-loop/
//    multi-edge streams checked EDGE FOR EDGE against a reference
//    multigraph after every batch (plus the full tiling/twin audit),
//  * explicit coalescing: adjacent freed blocks merge, a merged tail
//    run retreats the high-water mark, and steady churn cannot creep
//    the arena,
//  * chi-square uniformity of canonical-slot sampling through
//    DiGraph::RandomOutNeighbor.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/graph/digraph.h"
#include "fastppr/util/random.h"

namespace fastppr {
namespace {

std::vector<NodeId> Sorted(std::span<const NodeId> s) {
  std::vector<NodeId> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  return v;
}

TEST(DiGraphSlabTest, AddRemoveBasics) {
  DiGraph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.epoch(), 0u);

  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(3, 1).ok());
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.epoch(), 3u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(1), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.EdgeMultiplicity(0, 1), 1u);
  EXPECT_EQ(Sorted(g.OutNeighbors(0)), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(Sorted(g.InNeighbors(1)), (std::vector<NodeId>{0, 3}));

  EXPECT_TRUE(g.AddEdge(0, 9).IsInvalidArgument());
  EXPECT_TRUE(g.RemoveEdge(9, 0).IsInvalidArgument());
  EXPECT_TRUE(g.RemoveEdge(1, 0).IsNotFound());
  EXPECT_EQ(g.epoch(), 3u);  // failures do not bump the epoch

  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.epoch(), 4u);
  g.CheckConsistency();
}

TEST(DiGraphSlabTest, ParallelEdgesAndSelfLoops) {
  DiGraph g(3);
  // Three parallel copies of 0->1, two self-loops at 0, one 0->2.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(g.AddEdge(0, 1).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(g.AddEdge(0, 0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  g.CheckConsistency();
  EXPECT_EQ(g.OutDegree(0), 6u);
  EXPECT_EQ(g.InDegree(0), 2u);
  EXPECT_EQ(g.EdgeMultiplicity(0, 1), 3u);
  EXPECT_EQ(g.EdgeMultiplicity(0, 0), 2u);

  // Removing one occurrence at a time keeps the remaining multiset
  // intact and the invariants green at every step.
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  g.CheckConsistency();
  EXPECT_EQ(g.EdgeMultiplicity(0, 1), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  ASSERT_TRUE(g.RemoveEdge(0, 0).ok());
  g.CheckConsistency();
  EXPECT_EQ(g.EdgeMultiplicity(0, 0), 1u);
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  g.CheckConsistency();
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.RemoveEdge(0, 1).IsNotFound());
  ASSERT_TRUE(g.RemoveEdge(0, 0).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 2).ok());
  g.CheckConsistency();
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.OutDegree(0), 0u);
}

/// The block capacity a node appending one edge at a time ends at (the
/// ~1.5x growth ladder of ReserveSlot).
std::size_t LadderCap(uint32_t deg) {
  uint32_t cap = 0;
  while (cap < deg) {
    cap = DiGraph::ClassSlots(
        cap == 0 ? DiGraph::ClassFor(1)
                 : std::min(DiGraph::ClassFor(cap + cap / 2 + 1),
                            DiGraph::kNumClasses - 1));
  }
  return cap;
}

TEST(DiGraphSlabTest, BlockGrowShrinkRecycle) {
  DiGraph g(4);
  // Grow node 0 through many size classes. The vacated ladder blocks
  // are parked, split-recycled, coalesced or compacted away — whichever
  // path fires, the arena must stay within the allocator's
  // fragmentation bound of the live footprint, never accumulate the
  // whole relocation ladder (which would be ~2.4x the final block).
  for (NodeId i = 0; i < 300; ++i) {
    ASSERT_TRUE(g.AddEdge(0, 1 + (i % 3)).ok());
  }
  g.CheckConsistency();
  EXPECT_EQ(g.OutDegree(0), 300u);
  const std::size_t live0 = LadderCap(300);
  EXPECT_LE(g.out_arena_slots(), 2 * live0 + 64);

  // A second node growing through the same classes: total arena stays
  // within the fragmentation bound of BOTH live blocks.
  for (NodeId i = 0; i < 200; ++i) {
    ASSERT_TRUE(g.AddEdge(2, 3).ok());
  }
  g.CheckConsistency();
  const std::size_t live2 = LadderCap(200);
  EXPECT_LE(g.out_arena_slots(), 2 * (live0 + live2) + 64);

  // Shrink: removing most of node 0's edges walks its block back down
  // the classes; removing all of them frees the block entirely, and the
  // defragmentation passes hand the slack back to the arena.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(g.RemoveEdge(0, g.OutNeighbors(0).front()).ok());
  }
  g.CheckConsistency();
  EXPECT_EQ(g.OutDegree(0), 0u);
  g.CoalesceFreeBlocks();
  g.CheckConsistency();
  EXPECT_LE(g.out_arena_slots(), 2 * live2 + 64);

  // Memory accounting covers the arenas and the block tables.
  EXPECT_GT(g.MemoryBytes(), 0u);
}

TEST(DiGraphSlabTest, EnsureNodesGrowsUniverse) {
  DiGraph g(2);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(0, 3).IsInvalidArgument());
  g.EnsureNodes(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_TRUE(g.AddEdge(0, 3).ok());
  EXPECT_TRUE(g.AddEdge(4, 0).ok());
  g.CheckConsistency();
}

// ---- differential fuzz ------------------------------------------------

/// Reference model: multiset of edges as (src, dst) -> count.
using RefGraph = std::map<std::pair<NodeId, NodeId>, uint32_t>;

/// Asserts g == ref edge for edge: per-node out/in neighbour multisets,
/// multiplicities and totals, plus the slab's full internal audit.
void ExpectMatchesReference(const DiGraph& g, const RefGraph& ref,
                            std::size_t live_edges) {
  g.CheckConsistency();
  ASSERT_EQ(g.num_edges(), live_edges);
  std::map<NodeId, std::vector<NodeId>> expect_out;
  std::map<NodeId, std::vector<NodeId>> expect_in;
  for (const auto& [edge, count] : ref) {
    ASSERT_TRUE(g.HasEdge(edge.first, edge.second));
    ASSERT_EQ(g.EdgeMultiplicity(edge.first, edge.second), count);
    expect_out[edge.first].insert(expect_out[edge.first].end(), count,
                                  edge.second);
    expect_in[edge.second].insert(expect_in[edge.second].end(), count,
                                  edge.first);
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto out_it = expect_out.find(u);
    auto in_it = expect_in.find(u);
    std::vector<NodeId> eo =
        out_it == expect_out.end() ? std::vector<NodeId>{} : out_it->second;
    std::vector<NodeId> ei =
        in_it == expect_in.end() ? std::vector<NodeId>{} : in_it->second;
    std::sort(eo.begin(), eo.end());
    std::sort(ei.begin(), ei.end());
    ASSERT_EQ(Sorted(g.OutNeighbors(u)), eo) << "node " << u;
    ASSERT_EQ(Sorted(g.InNeighbors(u)), ei) << "node " << u;
  }
}

/// One seeded fuzz run: `steps` mixed operations with skewed endpoints
/// (hubs, parallel copies and self-loops are common), the reference
/// checked edge for edge after every `batch`-op batch. Occasionally
/// grows the node universe and forces an explicit coalescing pass, so
/// the allocator paths interleave with mutations.
void FuzzAgainstReference(uint64_t seed, std::size_t n, int steps,
                          int batch, double p_remove) {
  DiGraph g(n / 2);  // half the universe; EnsureNodes grows it
  RefGraph ref;
  std::vector<std::pair<NodeId, NodeId>> live;
  Rng rng(seed);

  for (int step = 1; step <= steps; ++step) {
    if (step == steps / 3) g.EnsureNodes(n);
    const std::size_t universe = g.num_nodes();
    const bool remove = !live.empty() && rng.Bernoulli(p_remove);
    if (remove) {
      const std::size_t at = rng.UniformIndex(live.size());
      const auto [u, v] = live[at];
      ASSERT_TRUE(g.RemoveEdge(u, v).ok());
      if (--ref[{u, v}] == 0) ref.erase({u, v});
      live[at] = live.back();
      live.pop_back();
    } else {
      // Skewed endpoints: a quarter of the universe sources everything,
      // so multi-edges pile up; 10% self-loops.
      const NodeId u =
          static_cast<NodeId>(rng.UniformIndex(std::max<std::size_t>(
              1, universe / 4)));
      const NodeId v =
          rng.Bernoulli(0.1)
              ? u
              : static_cast<NodeId>(rng.UniformIndex(universe));
      ASSERT_TRUE(g.AddEdge(u, v).ok());
      ++ref[{u, v}];
      live.push_back({u, v});
    }
    if (step % (batch * 4) == 0) g.CoalesceFreeBlocks();
    if (step % batch == 0) {
      ASSERT_NO_FATAL_FAILURE(
          ExpectMatchesReference(g, ref, live.size()))
          << "seed " << seed << " step " << step;
    }
  }
  ExpectMatchesReference(g, ref, live.size());
}

TEST(DiGraphSlabFuzzTest, DifferentialAgainstReferenceMultigraph) {
  FuzzAgainstReference(/*seed=*/2024, /*n=*/48, /*steps=*/6000,
                       /*batch=*/250, /*p_remove=*/0.45);
  FuzzAgainstReference(/*seed=*/7, /*n=*/96, /*steps=*/8000,
                       /*batch=*/500, /*p_remove=*/0.35);
  FuzzAgainstReference(/*seed=*/0xFA57, /*n=*/16, /*steps=*/6000,
                       /*batch=*/250, /*p_remove=*/0.49);
}

TEST(DiGraphSlabFuzzTest, DeletionHeavyDrainsToEmpty) {
  // Build up, then drain completely in shuffled order — the teardown
  // path walks every block down the ladder and ends with both arenas
  // fully released or parked.
  DiGraph g(40);
  RefGraph ref;
  std::vector<std::pair<NodeId, NodeId>> live;
  Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformIndex(10));
    const NodeId v = static_cast<NodeId>(rng.UniformIndex(40));
    ASSERT_TRUE(g.AddEdge(u, v).ok());
    ++ref[{u, v}];
    live.push_back({u, v});
  }
  ExpectMatchesReference(g, ref, live.size());
  rng.Shuffle(&live);
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_TRUE(g.RemoveEdge(live[i].first, live[i].second).ok());
    if (i % 1000 == 0) g.CheckConsistency();
  }
  g.CheckConsistency();
  EXPECT_EQ(g.num_edges(), 0u);
  g.CoalesceFreeBlocks();
  g.CheckConsistency();
  // Everything was freed: the coalescing pass merges the free runs into
  // the tail and hands the whole arena back.
  EXPECT_EQ(g.out_arena_slots(), 0u);
  EXPECT_EQ(g.in_arena_slots(), 0u);
  EXPECT_EQ(g.free_out_slots(), 0u);
  EXPECT_EQ(g.free_in_slots(), 0u);
}

// ---- coalescing -------------------------------------------------------

TEST(AdjacencyCoalescingTest, AdjacentFreedBlocksMergeIntoOne) {
  // Nodes 0, 1, 2 allocate one single-slot out-block each, back to back
  // at offsets 0, 1, 2. Freeing the first two parks two ADJACENT
  // single-slot blocks; the coalescing pass must merge them into one
  // two-slot block (same slots, fewer blocks).
  DiGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 3).ok());
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_EQ(g.out_arena_slots(), 3u);

  ASSERT_TRUE(g.RemoveEdge(0, 3).ok());
  ASSERT_TRUE(g.RemoveEdge(1, 3).ok());
  EXPECT_EQ(g.free_out_slots(), 2u);
  EXPECT_EQ(g.free_out_blocks(), 2u);

  g.CoalesceFreeBlocks();
  g.CheckConsistency();
  EXPECT_EQ(g.free_out_slots(), 2u);   // same slots...
  EXPECT_EQ(g.free_out_blocks(), 1u);  // ...one merged block
  EXPECT_EQ(g.out_arena_slots(), 3u);  // node 2 still pins the tail

  // Freeing the tail block retreats the high-water mark immediately,
  // and the next pass releases the merged run now touching the tail.
  ASSERT_TRUE(g.RemoveEdge(2, 3).ok());
  EXPECT_EQ(g.out_arena_slots(), 2u);
  g.CoalesceFreeBlocks();
  g.CheckConsistency();
  EXPECT_EQ(g.out_arena_slots(), 0u);
  EXPECT_EQ(g.free_out_slots(), 0u);
  EXPECT_EQ(g.free_out_blocks(), 0u);
}

TEST(AdjacencyCoalescingTest, HighWaterStopsGrowingUnderSteadyChurn) {
  // Steady-state churn on a fixed edge population: after a warm-up, the
  // arena high-water mark and the heap footprint must both plateau —
  // the automatic coalescing threshold keeps fragmentation from
  // creeping the arena upward cycle after cycle.
  const std::size_t n = 64;
  DiGraph g(n);
  std::vector<std::pair<NodeId, NodeId>> live;
  Rng rng(4242);
  // The live population is held inside a fixed band (a free 50/50 walk
  // would drift like sqrt(t) and grow the arena for a legitimate
  // reason); what must NOT grow at a stationary population is the
  // arena.
  auto churn_cycle = [&] {
    for (int op = 0; op < 2000; ++op) {
      const bool remove = live.size() > 1100 ||
                          (live.size() > 900 && rng.Bernoulli(0.5));
      if (remove) {
        const std::size_t at = rng.UniformIndex(live.size());
        ASSERT_TRUE(
            g.RemoveEdge(live[at].first, live[at].second).ok());
        live[at] = live.back();
        live.pop_back();
      } else {
        const NodeId u = static_cast<NodeId>(rng.UniformIndex(n / 4));
        const NodeId v = static_cast<NodeId>(rng.UniformIndex(n));
        ASSERT_TRUE(g.AddEdge(u, v).ok());
        live.push_back({u, v});
      }
    }
  };
  for (int cycle = 0; cycle < 50; ++cycle) churn_cycle();  // warm up
  // Watermark = the worst level seen across an observation window...
  std::size_t watermark = 0;
  std::size_t footprint = 0;
  for (int cycle = 0; cycle < 25; ++cycle) {
    churn_cycle();
    watermark = std::max(
        watermark, std::max(g.out_arena_slots(), g.in_arena_slots()));
    footprint = std::max(footprint, g.MemoryBytes());
  }
  // ...which twice as much further churn must never exceed (3% slack
  // for block-granularity wobble around the plateau; pre-compaction
  // creep accumulated ~7% per 60 cycles and kept going, so a real
  // regression still trips this).
  for (int cycle = 0; cycle < 50; ++cycle) {
    churn_cycle();
    EXPECT_LE(std::max(g.out_arena_slots(), g.in_arena_slots()),
              watermark + watermark / 33)
        << "arena high-water crept upward at churn cycle " << cycle;
    // 10% slack: the free-list stacks' capacities keep approaching
    // their (bounded: free_slots x 4 B) worst case for a while after
    // the observation window. A real leak compounds per cycle and blows
    // through this immediately; bounded metadata settling does not.
    EXPECT_LE(g.MemoryBytes(), footprint + footprint / 10)
        << "heap footprint crept upward at churn cycle " << cycle;
  }
  g.CheckConsistency();
}

// ---- sampling ---------------------------------------------------------

TEST(DiGraphSamplingTest, UniformOverSlotsAfterChurn) {
  // RandomOutNeighbor samples the canonical slot order uniformly, so a
  // node with neighbour multiset {1, 1, 2, 3} must hop to 1 with
  // probability 1/2 — including after removals permuted the slots.
  DiGraph g(6);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 4).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 3).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 4).ok());  // swap-remove permutes slots

  const std::size_t kDraws = 60000;
  std::map<NodeId, double> expect{{1, 0.5}, {2, 0.25}, {3, 0.25}};
  std::map<NodeId, std::size_t> hits;
  Rng rng(7);
  for (std::size_t i = 0; i < kDraws; ++i) {
    ++hits[g.RandomOutNeighbor(0, &rng)];
  }
  // Chi-square over the 3 outcomes; df = 2, alpha = 0.001 -> 13.82.
  double chi2 = 0.0;
  for (const auto& [v, p] : expect) {
    const double e = p * static_cast<double>(kDraws);
    const double d = static_cast<double>(hits[v]) - e;
    chi2 += d * d / e;
  }
  EXPECT_LT(chi2, 13.82) << "sampling is not uniform over slots";
}

TEST(DiGraphSamplingTest, UniformOverLargeOutDegree) {
  // A hub with 64 distinct targets: every target lands in its own slot,
  // so the chi-square over targets checks slot uniformity directly.
  const std::size_t d = 64;
  DiGraph g(d + 1);
  for (NodeId v = 1; v <= d; ++v) {
    ASSERT_TRUE(g.AddEdge(0, v).ok());
  }
  const std::size_t kDraws = 64000;
  std::vector<std::size_t> hits(d + 1, 0);
  Rng rng(11);
  for (std::size_t i = 0; i < kDraws; ++i) {
    ++hits[g.RandomOutNeighbor(0, &rng)];
  }
  const double e = static_cast<double>(kDraws) / static_cast<double>(d);
  double chi2 = 0.0;
  for (NodeId v = 1; v <= d; ++v) {
    const double diff = static_cast<double>(hits[v]) - e;
    chi2 += diff * diff / e;
  }
  // df = 63, alpha = 0.001 -> 103.4.
  EXPECT_LT(chi2, 103.4) << "hub sampling is not uniform";
}

}  // namespace
}  // namespace fastppr
