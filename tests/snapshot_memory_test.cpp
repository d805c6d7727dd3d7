// Memory-accounting regression layer (PR 5): the two memory claims of
// the compact slab + dense frozen-row work, enforced rather than
// reported.
//
//  * AdjacencySlab::MemoryBytes() is audited against RAW allocation
//    counters — this test file interposes global operator new/delete
//    with a size-header counter, so the slab's self-reported bytes must
//    match what the allocator actually handed out while the graph was
//    built. Self-accounting that drifts from reality (a forgotten
//    column, an uncounted side table) fails here.
//  * Slab bytes/edge on a power-law graph is bounded against an
//    in-test reconstruction of the legacy vector-of-vectors layout
//    (the committed regression bound: <= 1.5x legacy, down from the
//    ~2.4x the pre-compaction slab paid).
//  * A shard's FrozenSegments row table holds owned_rows rows — not
//    n * segments_per_node — and its content resolves bit-identically
//    through the SegmentOwnership global->local map, including
//    delta-publishes driven by the store's dirty feed.
//  * Structural sharing (PR 9): a delta publish allocates only the
//    window's dirty content (audited against the raw counters, not the
//    self-reported bytes), clean chunks are SHARED between consecutive
//    frozen epochs, and a retired epoch's unshared chunks are freed the
//    moment its last pin drops — the chunk shared_ptr use_count is the
//    refcount under test. The churn-rotation test doubles as the ASan
//    probe for use-after-free across publish rotation.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/digraph.h"
#include "fastppr/graph/generators.h"
#include "fastppr/store/segment_snapshot.h"
#include "fastppr/util/random.h"

// ---- raw allocation counters (test-binary-wide interposition) --------
//
// Every unaligned operator new in this binary allocates a 16-byte
// header recording the request size and bumps g_live_bytes; delete
// reads the header back. Net live bytes across a scope is then exactly
// the sum of the allocation sizes the scope retained — the "raw
// allocation counter" the slab's MemoryBytes() is audited against.
// (Over-aligned news fall through to the default implementation; the
// graph slab allocates nothing over-aligned.)

namespace {
std::atomic<std::int64_t> g_live_bytes{0};
constexpr std::size_t kHeader = 16;  // keeps 16-byte malloc alignment
}  // namespace

void* operator new(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) return nullptr;
  *static_cast<std::size_t*>(raw) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}

void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)),
      std::memory_order_relaxed);
  std::free(raw);
}

void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace fastppr {
namespace {

std::vector<Edge> PowerLawEdges(std::size_t n, std::size_t out_per_node,
                                uint64_t seed) {
  Rng rng(seed);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = out_per_node;
  auto edges = PreferentialAttachment(gen, &rng);
  rng.Shuffle(&edges);
  return edges;
}

TEST(SlabMemoryAccountingTest, MemoryBytesMatchesRawAllocationCounters) {
  const auto edges = PowerLawEdges(10000, 10, 5);
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  DiGraph g(10000);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  const std::int64_t live =
      g_live_bytes.load(std::memory_order_relaxed) - before;

  // Everything allocated in the scope above belongs to the slab, and
  // MemoryBytes() counts vector capacities — the exact byte counts the
  // slab's vectors requested from operator new. The two must agree to
  // within a whisker (Status strings or allocator rounding never enter
  // this path; 1% + 4 KiB of slack guards incidental noise).
  const std::int64_t reported =
      static_cast<std::int64_t>(g.MemoryBytes());
  EXPECT_GE(live, 0);
  EXPECT_NEAR(static_cast<double>(reported), static_cast<double>(live),
              0.01 * static_cast<double>(live) + 4096.0)
      << "self-reported slab bytes drifted from raw allocation counters";
}

TEST(SlabMemoryAccountingTest, ChurnDoesNotLeakAgainstRawCounters) {
  // Steady churn must not accumulate live allocation the accounting
  // cannot see: remove half the edges, re-add them, and re-audit.
  const std::size_t n = 4000;
  auto edges = PowerLawEdges(n, 8, 7);
  DiGraph g(n);
  for (const Edge& e : edges) ASSERT_TRUE(g.AddEdge(e.src, e.dst).ok());
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < edges.size(); i += 2) {
      ASSERT_TRUE(g.RemoveEdge(edges[i].src, edges[i].dst).ok());
    }
    for (std::size_t i = 0; i < edges.size(); i += 2) {
      ASSERT_TRUE(g.AddEdge(edges[i].src, edges[i].dst).ok());
    }
  }
  g.slab().CheckConsistency();
  const std::int64_t grown =
      g_live_bytes.load(std::memory_order_relaxed) - before;
  // Churn may settle blocks into marginally different classes, but the
  // coalescing free list must keep the footprint from creeping: allow
  // 15% over the post-build live bytes, no more.
  EXPECT_LE(static_cast<double>(grown),
            0.15 * static_cast<double>(g.MemoryBytes()))
      << "churn grew live allocation by " << grown << " bytes";
}

TEST(SlabMemoryRegressionTest, BytesPerEdgeWithinCommittedBound) {
  // The committed bound of the memory diet: the slab pays at most 1.5x
  // the legacy vector-of-vectors layout per edge on a power-law graph
  // (it paid ~2.4x before the compact twin encoding + quarter-spaced
  // coalescing arena). The legacy accounting is reconstructed here the
  // way bench/legacy/legacy_digraph.h reports it: vector headers plus
  // capacity bytes, malloc overhead uncounted (which flatters legacy).
  const std::size_t n = 20000;
  const auto edges = PowerLawEdges(n, 10, 11);

  DiGraph slab_graph(n);
  std::vector<std::vector<NodeId>> legacy_out(n);
  std::vector<std::vector<NodeId>> legacy_in(n);
  for (const Edge& e : edges) {
    ASSERT_TRUE(slab_graph.AddEdge(e.src, e.dst).ok());
    legacy_out[e.src].push_back(e.dst);
    legacy_in[e.dst].push_back(e.src);
  }

  std::size_t legacy_bytes =
      2 * n * sizeof(std::vector<NodeId>);  // per-node vector headers
  for (const auto* side : {&legacy_out, &legacy_in}) {
    for (const auto& row : *side) {
      legacy_bytes += row.capacity() * sizeof(NodeId);
    }
  }
  const double m = static_cast<double>(edges.size());
  const double slab_bpe =
      static_cast<double>(slab_graph.MemoryBytes()) / m;
  const double legacy_bpe = static_cast<double>(legacy_bytes) / m;

  EXPECT_LE(slab_bpe, 1.5 * legacy_bpe)
      << "slab bytes/edge regressed: " << slab_bpe << " vs legacy "
      << legacy_bpe;
  // Floor sanity: 14 B/edge of live data (4B id + 3B twin, two sides)
  // is the encoding's lower bound — reporting less means the accounting
  // is lying, not that the layout got better.
  EXPECT_GE(slab_bpe, 14.0);
}

// Full-capture publish through the capture/assemble split (both halves
// in one helper).
std::shared_ptr<const FrozenSegments> FullPublish(
    SegmentSnapshotBuilder* b, const WalkStore& store, uint64_t epoch) {
  snap::CapturedRows<uint64_t> cap;
  b->Capture(store, {}, /*force_full=*/true, &cap);
  return b->Assemble(std::move(cap), epoch);
}

std::shared_ptr<const FrozenSegments> DeltaPublish(
    SegmentSnapshotBuilder* b, WalkStore* store, uint64_t epoch) {
  snap::CapturedRows<uint64_t> cap;
  b->Capture(*store, store->dirty_segments(), store->dirty_overflowed(),
             &cap);
  store->ClearDirtySegments();
  return b->Assemble(std::move(cap), epoch);
}

void ExpectSameContent(const FrozenSegments& a, const FrozenSegments& b) {
  ASSERT_EQ(a.num_segments(), b.num_segments());
  for (uint64_t row = 0; row < a.num_segments(); ++row) {
    const auto ra = a.Segment(row);
    const auto rb = b.Segment(row);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << row;
    for (std::size_t p = 0; p < ra.size(); ++p) {
      ASSERT_EQ(ra.node(p), rb.node(p)) << "row " << row;
    }
  }
}

TEST(FrozenRowTableTest, ShardSnapshotHoldsOwnedRowsNotGlobalTable) {
  const std::size_t n = 600;
  const std::size_t S = 4;
  const auto edges = PowerLawEdges(n, 6, 13);
  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.2;
  mc.seed = 17;
  ShardedEngine<IncrementalPageRank> engine(n, mc, ShardedOptions{S, 2});
  std::vector<EdgeEvent> events;
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  ASSERT_TRUE(engine.ApplyEvents(events).ok());

  const auto ownership = engine.MakeSegmentOwnership();
  const std::size_t spn =
      engine.shard(0).walk_store().segments_per_node();
  ASSERT_EQ(ownership->segments_per_node(), spn);

  std::size_t owned_nodes_total = 0;
  std::size_t dense_row_bytes_total = 0;
  for (std::size_t s = 0; s < S; ++s) {
    const WalkStore& store = engine.shard(s).walk_store();
    SegmentSnapshotBuilder builder(ownership, s);
    const auto frozen = FullPublish(&builder, store, /*epoch=*/1);

    // The dense-addressing claim: owned_rows rows, not n * spn.
    ASSERT_EQ(frozen->num_segments(), ownership->owned_rows(s));
    EXPECT_LT(frozen->num_segments(), n * spn / 2);
    owned_nodes_total += ownership->owned_nodes(s).size();
    dense_row_bytes_total += frozen->row_table_bytes();

    // Dense addressing resolves every owned segment bit-identically.
    for (NodeId u : ownership->owned_nodes(s)) {
      for (std::size_t k = 0; k < spn; ++k) {
        const auto live = store.GetSegment(u, k);
        const auto snap = frozen->Segment(ownership->LocalRow(u, k));
        ASSERT_EQ(snap.size(), live.size());
        for (std::size_t p = 0; p < live.size(); ++p) {
          ASSERT_EQ(snap.node(p), live.node(p));
        }
      }
    }
  }
  EXPECT_EQ(owned_nodes_total, n);
  // Across ALL shards the dense row tables together hold exactly one
  // global table's worth of rows — the S-fold duplication is gone.
  // (16 bytes per row; capacity slack stays under 25%.)
  EXPECT_LE(dense_row_bytes_total, n * spn * 16 * 5 / 4);
}

TEST(FrozenRowTableTest, DeltaPublishThroughGlobalToLocalMap) {
  // A delta publish feeds GLOBAL dirty segment ids through the
  // ownership map into the dense table; the result must equal a fresh
  // full copy.
  const std::size_t n = 400;
  const std::size_t S = 3;
  const auto edges = PowerLawEdges(n, 5, 23);
  MonteCarloOptions mc;
  mc.walks_per_node = 2;
  mc.epsilon = 0.25;
  mc.seed = 29;
  ShardedEngine<IncrementalPageRank> engine(n, mc, ShardedOptions{S, 2});
  std::vector<EdgeEvent> events;
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  const std::size_t half = events.size() / 2;
  ASSERT_TRUE(
      engine
          .ApplyEvents(std::span<const EdgeEvent>(events.data(), half))
          .ok());

  const auto ownership = engine.MakeSegmentOwnership();
  std::vector<SegmentSnapshotBuilder> builders;
  builders.reserve(S);
  for (std::size_t s = 0; s < S; ++s) builders.emplace_back(ownership, s);
  for (std::size_t s = 0; s < S; ++s) {
    auto* store = engine.shard(s).mutable_walk_store();
    store->set_dirty_tracking(true);
    FullPublish(&builders[s], *store, 1);
  }

  // Second half of the stream: repairs accumulate in the dirty feeds.
  ASSERT_TRUE(engine
                  .ApplyEvents(std::span<const EdgeEvent>(
                      events.data() + half, events.size() - half))
                  .ok());

  for (std::size_t s = 0; s < S; ++s) {
    auto* store = engine.shard(s).mutable_walk_store();
    const auto delta = DeltaPublish(&builders[s], store, 2);

    SegmentSnapshotBuilder fresh_builder(ownership, s);
    const auto full = FullPublish(&fresh_builder, *store, 2);
    ExpectSameContent(*delta, *full);
  }
}

TEST(SharedSnapshotTest, DeltaPublishAllocatesOnlyDirtyChunks) {
  // The ~1×-delta publish claim, audited against the RAW allocation
  // counters: a window's delta publish may allocate the dirty rows'
  // content plus small fixed structures — never another copy of the
  // table — and its clean root chunks must be SHARED pointers into the
  // previous epoch's view, not fresh allocations.
  const std::size_t n = 2000;
  const std::size_t S = 2;
  const auto edges = PowerLawEdges(n, 8, 31);
  MonteCarloOptions mc;
  mc.walks_per_node = 4;
  mc.epsilon = 0.2;
  mc.seed = 37;
  ShardedEngine<IncrementalPageRank> engine(n, mc, ShardedOptions{S, 2});
  std::vector<EdgeEvent> events;
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  const std::size_t most = events.size() - 64;
  ASSERT_TRUE(
      engine.ApplyEvents(std::span<const EdgeEvent>(events.data(), most))
          .ok());

  const auto ownership = engine.MakeSegmentOwnership();
  auto* store = engine.shard(0).mutable_walk_store();
  store->set_dirty_tracking(true);
  SegmentSnapshotBuilder builder(ownership, 0);
  const auto v1 = FullPublish(&builder, *store, 1);
  const std::size_t full_bytes = v1->MemoryBytes();

  // One small window dirties a handful of segments.
  ASSERT_TRUE(engine
                  .ApplyEvents(std::span<const EdgeEvent>(
                      events.data() + most, events.size() - most))
                  .ok());
  engine.Drain();  // pipelined repairs land before the dirty feed is read
  ASSERT_FALSE(store->dirty_overflowed());
  const std::size_t dirty_entries = store->dirty_segments().size();
  ASSERT_GT(dirty_entries, 0u);

  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  const auto v2 = DeltaPublish(&builder, store, 2);
  const std::int64_t delta_alloc =
      g_live_bytes.load(std::memory_order_relaxed) - before;

  // The delta publish retained at most the dirty content (bounded here
  // by entries * a generous per-segment byte cap) plus fixed overhead —
  // far below another full copy.
  EXPECT_LT(static_cast<std::size_t>(delta_alloc), full_bytes / 4)
      << "delta publish allocated a table-sized footprint";
  ExpectSameContent(*v2, *v2);  // self-check the view is readable

  // Structural sharing: the delta epoch reuses every root chunk of the
  // previous epoch by pointer.
  const auto& r1 = v1->shared_rows();
  const auto& r2 = v2->shared_rows();
  ASSERT_EQ(r1.num_chunks(), r2.num_chunks());
  for (std::size_t i = 0; i < r1.num_chunks(); ++i) {
    EXPECT_EQ(r1.chunk_ptr(i).get(), r2.chunk_ptr(i).get())
        << "root chunk " << i << " was copied, not shared";
  }
}

TEST(SharedSnapshotTest, ChunkRefcountsReachZeroAfterLastUnpin) {
  // The chunk refcount lifecycle: when a frozen epoch is retired and
  // the builder has moved to a new root, the old epoch's chunks are
  // freed exactly when the last reader pin drops — observed both via
  // shared_ptr use_count and via the raw live-byte counters.
  const std::size_t n = 1200;
  const auto edges = PowerLawEdges(n, 6, 41);
  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.2;
  mc.seed = 43;
  ShardedEngine<IncrementalPageRank> engine(n, mc, ShardedOptions{1, 1});
  std::vector<EdgeEvent> events;
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  ASSERT_TRUE(engine.ApplyEvents(events).ok());

  const auto ownership = engine.MakeSegmentOwnership();
  const WalkStore& store = engine.shard(0).walk_store();
  SegmentSnapshotBuilder builder(ownership, 0);

  const std::int64_t base = g_live_bytes.load(std::memory_order_relaxed);
  auto v1 = FullPublish(&builder, store, 1);
  const std::int64_t after_v1 =
      g_live_bytes.load(std::memory_order_relaxed) - base;
  ASSERT_GT(after_v1, 0);

  // A forced full re-publish rebases the builder onto a brand-new root:
  // v1's chunks are now held ONLY by v1's pin.
  snap::CapturedRows<uint64_t> cap;
  builder.Capture(store, {}, /*force_full=*/true, &cap);
  auto v2 = builder.Assemble(std::move(cap), 2);

  auto chunk = v1->shared_rows().chunk_ptr(0);
  // Holders: v1's root core and our local copy.
  EXPECT_EQ(chunk.use_count(), 2);
  const std::int64_t with_both =
      g_live_bytes.load(std::memory_order_relaxed) - base;
  v1.reset();
  EXPECT_EQ(chunk.use_count(), 1) << "retired epoch still holds chunks";
  chunk.reset();
  const std::int64_t after_drop =
      g_live_bytes.load(std::memory_order_relaxed) - base;
  // Dropping the last pin released (approximately) one full table: what
  // remains is v2's copy alone.
  EXPECT_LT(after_drop, with_both - after_v1 / 2)
      << "retired epoch's chunks were not freed at last unpin";
  v2.reset();
  const std::int64_t after_all =
      g_live_bytes.load(std::memory_order_relaxed) - base;
  // Builder head still references v2's core; everything else is gone.
  EXPECT_LT(after_all, with_both);
}

TEST(SharedSnapshotTest, PublishRotationUnderChurnStaysCorrect) {
  // The ASan probe for the shared-chain lifecycle: many windows of
  // churn, a delta publish per window, a sliding window of old epochs
  // still pinned (as concurrent readers would), every view checked
  // against a fresh full copy, and the chain bound enforced. A
  // use-after-free anywhere in the share/consolidate/free cycle trips
  // the sanitizer job running this binary.
  const std::size_t n = 500;
  const auto edges = PowerLawEdges(n, 6, 53);
  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.2;
  mc.seed = 59;
  ShardedEngine<IncrementalPageRank> engine(n, mc, ShardedOptions{1, 1});
  std::vector<EdgeEvent> inserts;
  for (const Edge& e : edges) {
    inserts.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  ASSERT_TRUE(engine.ApplyEvents(inserts).ok());

  const auto ownership = engine.MakeSegmentOwnership();
  auto* store = engine.shard(0).mutable_walk_store();
  store->set_dirty_tracking(true);
  SegmentSnapshotBuilder builder(ownership, 0);
  std::vector<std::shared_ptr<const FrozenSegments>> pinned;
  pinned.push_back(FullPublish(&builder, *store, 0));

  for (uint64_t w = 1; w <= 24; ++w) {
    // One churn window: remove a slice of edges, re-add them.
    std::vector<EdgeEvent> window;
    for (std::size_t i = w % 7; i < edges.size(); i += 7) {
      window.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, edges[i]});
    }
    for (std::size_t i = w % 7; i < edges.size(); i += 7) {
      window.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, edges[i]});
    }
    ASSERT_TRUE(engine.ApplyEvents(window).ok());
    engine.Drain();
    pinned.push_back(DeltaPublish(&builder, store, w));
    EXPECT_LE(pinned.back()->shared_rows().chain_length(), 16u);
    // Keep a 3-epoch pin window; older epochs retire (chunks freed).
    if (pinned.size() > 3) pinned.erase(pinned.begin());

    // Every pinned epoch stays readable; the newest matches the store.
    for (const auto& view : pinned) {
      ASSERT_EQ(view->num_segments(), ownership->owned_rows(0));
    }
    SegmentSnapshotBuilder fresh(ownership, 0);
    const auto full = FullPublish(&fresh, *store, w);
    ExpectSameContent(*pinned.back(), *full);
  }
}

}  // namespace
}  // namespace fastppr
