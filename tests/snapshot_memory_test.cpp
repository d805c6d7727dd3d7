// Memory-accounting regression layer (PR 5): the two memory claims of
// the compact slab + dense frozen-row work, enforced rather than
// reported.
//
//  * DiGraph::MemoryBytes() is audited against RAW allocation
//    counters — this test file interposes global operator new/delete
//    with a size-header counter, so the slab's self-reported bytes must
//    match what the allocator actually handed out while the graph was
//    built. Self-accounting that drifts from reality (a forgotten
//    column, an uncounted side table) fails here.
//  * Slab bytes/edge on a power-law graph is bounded against an
//    in-test reconstruction of the legacy vector-of-vectors layout
//    (the committed regression bound: <= 1.5x legacy, down from the
//    ~2.4x the pre-compaction slab paid).
//  * The frozen row tables (store/segment_snapshot.h): one global
//    segment table resolves every row bit-identically to the live
//    stores; a pin held across several publishes keeps reading exactly
//    what it pinned; a delta publish keeps only its dirty rows' versions;
//    and a replaced version is freed at the first publish after the last
//    pin that could reach it drops, not before. Versions live in each
//    table's block pool (store/block_pool.h), so these audits read the
//    pool's live bytes, and the raw counters audit the pool itself: what
//    operator new handed the tables is the pool's chunks, and a free
//    hands nothing back. The pinned-churn test doubles as the ASan probe
//    for use-after-free across the publish/reclaim cycle (freed blocks
//    are poisoned). A window whose net delta is empty writes no segment
//    version, yet a delete and re-insert of one edge still republishes
//    the rows it reordered, and a second service on one engine aborts.
//  * The memory ledger: every pool gauge the engine and the service set
//    equals the pool's own accessor, and the walk stores' pools follow
//    their rows' state through a long stationary churn, not its
//    history.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/digraph.h"
#include "fastppr/graph/generators.h"
#include "fastppr/obs/engine_metrics.h"
#include "fastppr/store/block_pool.h"
#include "fastppr/store/segment_snapshot.h"
#include "fastppr/util/random.h"
#include "fastppr/util/shard.h"

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
  g.CheckConsistency();
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
  // coalescing arena). The legacy accounting is reconstructed here:
  // vector headers plus capacity bytes, malloc overhead uncounted (which
  // flatters legacy).
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

using Engine = ShardedEngine<IncrementalPageRank>;
using Service = QueryService<IncrementalPageRank>;

std::vector<EdgeEvent> Inserts(const std::vector<Edge>& edges) {
  std::vector<EdgeEvent> events;
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  return events;
}

/// Churn over a loaded edge list: each window re-inserts the slice the
/// previous window removed, then removes the next slice (every
/// `stride`-th edge from a rotating offset). The slices are disjoint, so
/// no window nets out to an empty delta.
class Churn {
 public:
  Churn(const std::vector<Edge>* edges, std::size_t stride)
      : edges_(edges), stride_(stride) {}

  std::vector<EdgeEvent> Next() {
    std::vector<EdgeEvent> window;
    for (const Edge& e : removed_) {
      window.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
    }
    removed_.clear();
    for (std::size_t i = offset_; i < edges_->size(); i += stride_) {
      window.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, (*edges_)[i]});
      removed_.push_back((*edges_)[i]);
    }
    offset_ = (offset_ + 1) % stride_;
    return window;
  }

 private:
  const std::vector<Edge>* edges_;
  std::size_t stride_;
  std::size_t offset_ = 0;
  std::vector<Edge> removed_;
};

/// Every segment's node ids (row u * spn + k) and every out-row, read
/// from the live stores at a drained boundary: the full copy a pinned
/// view must keep reproducing.
struct LiveCopy {
  std::vector<std::vector<NodeId>> segments;
  std::vector<std::vector<NodeId>> out;
};

LiveCopy CopyLive(Engine& engine) {
  LiveCopy copy;
  const std::size_t spn = engine.shard(0).walk_store().segments_per_node();
  for (NodeId u = 0; u < engine.num_nodes(); ++u) {
    const auto S = static_cast<uint32_t>(engine.num_shards());
    const WalkStore& store = engine.shard(ShardOfNode(u, S)).walk_store();
    for (std::size_t k = 0; k < spn; ++k) {
      const auto seg = store.GetSegment(u, k);
      std::vector<NodeId> ids;
      for (std::size_t p = 0; p < seg.size(); ++p) ids.push_back(seg.node(p));
      copy.segments.push_back(std::move(ids));
    }
    const auto row = engine.graph().OutNeighbors(u);
    copy.out.emplace_back(row.begin(), row.end());
  }
  return copy;
}

/// Every row of the service's tables as `pin` sees them equals `copy`.
void ExpectPinnedViewEquals(const Service& service,
                            const PublishPins::Pin& pin,
                            const LiveCopy& copy) {
  const FrozenSegments segments = service.SegmentsAt(pin);
  const FrozenAdjacency graph = service.AdjacencyAt(pin);
  const std::size_t spn = copy.segments.size() / copy.out.size();
  for (uint64_t row = 0; row < copy.segments.size(); ++row) {
    const auto seg =
        segments.GetSegment(static_cast<NodeId>(row / spn), row % spn);
    const std::vector<NodeId>& want = copy.segments[row];
    ASSERT_EQ(seg.size(), want.size()) << "segment row " << row;
    for (std::size_t p = 0; p < want.size(); ++p) {
      ASSERT_EQ(seg.node(p), want[p]) << "segment row " << row;
    }
  }
  for (NodeId v = 0; v < copy.out.size(); ++v) {
    const auto row = graph.OutNeighbors(v);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), copy.out[v].begin(),
                           copy.out[v].end()))
        << "out-row " << v;
  }
}

TEST(FrozenRowTableTest, GlobalSegmentTableMatchesLiveStoresThroughChurn) {
  // One table holds every shard's segments at row u * spn + k — n * spn
  // rows, not n * spn per shard — and resolves every row bit-identically
  // to its owner shard's live store, after the first (full) publish and
  // after each delta publish the shards' disjoint repair plans drive.
  const std::size_t n = 600;
  const std::size_t S = 4;
  const auto edges = PowerLawEdges(n, 6, 13);
  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.2;
  mc.seed = 17;
  Engine engine(n, mc, ShardedOptions{S, 2});
  ASSERT_TRUE(engine.ApplyEvents(Inserts(edges)).ok());
  Service service(&engine);

  const std::size_t spn = engine.shard(0).walk_store().segments_per_node();
  const auto stats = service.FrozenStats();
  EXPECT_EQ(stats.segment_rows, n * spn);
  EXPECT_EQ(stats.segment_rows_global_model, S * n * spn);
  // 8-byte heads plus one 16-byte header per version: the row metadata
  // of one global table, whatever S is.
  EXPECT_EQ(stats.segment_row_table_bytes, n * spn * (8 + 16));

  Churn churn(&edges, 5);
  for (std::size_t w = 0; w < 4; ++w) {
    const PublishPins::Pin pin = service.Pin();
    EXPECT_EQ(pin.epoch, engine.windows_applied());
    ExpectPinnedViewEquals(service, pin, CopyLive(engine));
    service.Unpin(pin);
    ASSERT_TRUE(service.Ingest(churn.Next()).ok());
    service.Quiesce();
  }
  const PublishVolume volume = service.publish_volume();
  EXPECT_EQ(volume.publishes_delta, 4u * 2u);  // segments + out side
  EXPECT_GT(volume.bytes_delta, 0u);
}

TEST(FrozenRowTableTest, PinHeldAcrossChurnPublishesReadsItsSeq) {
  // The old-pin path: a sliding window of four pins, each held across
  // four churn publishes, keeps reading every segment and
  // out-row exactly as the full copy taken when it was pinned, while
  // the publishes overwrite those rows' heads. Unpinned versions are
  // freed as the window slides, so this is also the ASan probe for the
  // publish/reclaim cycle.
  const std::size_t n = 500;
  const auto edges = PowerLawEdges(n, 6, 53);
  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.2;
  mc.seed = 59;
  Engine engine(n, mc, ShardedOptions{2, 2});
  ASSERT_TRUE(engine.ApplyEvents(Inserts(edges)).ok());
  Service service(&engine);

  struct Held {
    PublishPins::Pin pin;
    LiveCopy copy;
  };
  std::vector<Held> held;
  Churn churn(&edges, 7);
  for (std::size_t w = 1; w <= 12; ++w) {
    held.push_back(Held{service.Pin(), CopyLive(engine)});
    if (held.size() > 4) {
      service.Unpin(held.front().pin);
      held.erase(held.begin());
    }
    ASSERT_TRUE(service.Ingest(churn.Next()).ok());
    service.Quiesce();
    for (const Held& h : held) ExpectPinnedViewEquals(service, h.pin, h.copy);
  }
  // The oldest pin has now lived through four publishes after its own,
  // and those publishes did rewrite rows it reads.
  EXPECT_EQ(held.front().pin.epoch + 4, engine.windows_applied());
  EXPECT_NE(held.front().copy.segments, CopyLive(engine).segments);
  EXPECT_GT(service.segment_table().retired(), 0u);
  for (const Held& h : held) service.Unpin(h.pin);
}

/// Live and held bytes of the service's three version pools.
struct PoolBytes {
  std::int64_t live = 0;
  std::int64_t held = 0;
};
PoolBytes ServicePoolBytes(const Service& service) {
  PoolBytes b;
  for (const VersionedRows* t : {&service.segment_table(),
                                 &service.out_table(), &service.in_table()}) {
    b.live += static_cast<std::int64_t>(t->pool().live_bytes());
    b.held += static_cast<std::int64_t>(t->pool().held_bytes());
  }
  return b;
}

TEST(FrozenRowTableTest, DeltaPublishKeepsOnlyDirtyRowVersions) {
  // A delta publish writes one version per dirty row and keeps nothing
  // else: across a small window, the live bytes of the tables' pools
  // grow by no more than the versions the publish wrote, which are a
  // small fraction of one full table. The raw allocation counters see
  // only what the pools took as chunks (with the engine's own buffers
  // already at their steady size).
  const std::size_t n = 2000;
  const auto edges = PowerLawEdges(n, 8, 31);
  MonteCarloOptions mc;
  mc.walks_per_node = 4;
  mc.epsilon = 0.2;
  mc.seed = 37;
  Engine engine(n, mc, ShardedOptions{2, 2});
  ASSERT_TRUE(engine.ApplyEvents(Inserts(edges)).ok());
  Service service(&engine);
  const std::size_t table_bytes = service.FrozenStats().segment_bytes;

  Churn churn(&edges, 400);
  for (std::size_t w = 0; w < 4; ++w) {
    ASSERT_TRUE(service.Ingest(churn.Next()).ok());
    service.Quiesce();
  }
  const std::vector<EdgeEvent> window = churn.Next();
  const uint64_t written_before = service.publish_volume().bytes_delta;
  const PoolBytes pools_before = ServicePoolBytes(service);
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  ASSERT_TRUE(service.Ingest(window).ok());
  service.Quiesce();
  const std::int64_t raw_kept =
      g_live_bytes.load(std::memory_order_relaxed) - before;
  const PoolBytes pools_after = ServicePoolBytes(service);
  const std::int64_t kept = pools_after.live - pools_before.live;
  const uint64_t written =
      service.publish_volume().bytes_delta - written_before;

  ASSERT_GT(written, 0u);
  EXPECT_LT(written, table_bytes / 20)
      << "a small window's publish wrote a table-sized delta";
  // The versions the previous window replaced are freed inside this
  // publish, so `kept` is usually below `written`.
  EXPECT_LE(kept, static_cast<std::int64_t>(written))
      << "the publish kept more than its dirty rows' versions";
  // What the raw counters kept is the chunks the pools took, if any;
  // 4 KiB covers the engine's per-window bookkeeping.
  EXPECT_LE(raw_kept, pools_after.held - pools_before.held + 4096)
      << "the tables allocated outside their pools";
}

TEST(FrozenRowTableTest, RetiredVersionsFreedAtFirstPublishAfterLastUnpin) {
  // Reclamation, audited against the raw allocation counters on a bare
  // table driven by the service's publish protocol (Reclaim at the
  // oldest pin, Write, Advance): versions a pin could reach survive
  // every publish while it is held and its release, and go at the first
  // publish after it.
  const auto content = [](uint64_t r, uint64_t seq) {
    return [r, seq](std::size_t i) {
      return static_cast<NodeId>(r * 1000 + seq * 10 + i);
    };
  };
  VersionedRows rows(8);
  PublishPins pins;
  const auto publish = [&](uint64_t seq, std::size_t first_dirty) {
    rows.Reclaim(pins.Oldest());
    for (uint64_t r = first_dirty; r < rows.num_rows(); ++r) {
      rows.Write(r, seq, 3, content(r, seq));
    }
    pins.Advance(PublishPins::Pin{seq, seq});
  };
  const auto live = [&rows] {
    return static_cast<std::int64_t>(rows.pool().live_bytes());
  };
  // The first versions carve one chunk, and that chunk is everything
  // the raw counters see the publish take.
  const std::int64_t raw_empty = g_live_bytes.load(std::memory_order_relaxed);
  publish(1, 0);
  EXPECT_EQ(g_live_bytes.load(std::memory_order_relaxed) - raw_empty,
            static_cast<std::int64_t>(rows.pool().held_bytes()));
  EXPECT_EQ(rows.pool().held_bytes(), slab::BlockPool::kChunkBytes);
  const PublishPins::Pin old_pin = pins.Acquire();
  publish(2, 4);  // rows 4..7 replaced at seq 2
  publish(3, 6);  // rows 6..7 replaced at seq 3
  EXPECT_EQ(rows.retired(), 6u);
  EXPECT_EQ(rows.oldest_retired_seq(), 2u);
  for (uint64_t r = 0; r < rows.num_rows(); ++r) {
    const auto row = rows.Row(r, old_pin.seq);
    ASSERT_EQ(row.size(), 3u);
    EXPECT_EQ(row[2], content(r, 1)(2)) << "row " << r;
  }

  const std::int64_t held = live();
  pins.Release(old_pin);
  EXPECT_EQ(live(), held)
      << "a release freed versions before the next publish";
  EXPECT_EQ(rows.retired(), 6u);

  const std::int64_t before = live();
  const std::int64_t raw_before = g_live_bytes.load(std::memory_order_relaxed);
  publish(4, 8);  // writes nothing: a pure reclamation point
  const std::int64_t freed = before - live();
  EXPECT_EQ(rows.retired(), 0u);
  // A version is a 16-byte header (older; seq and length in one word)
  // plus its ids.
  constexpr std::int64_t kVersionBytes = 16 + 3 * sizeof(NodeId);
  EXPECT_EQ(freed, 6 * kVersionBytes)
      << "the first publish after the last unpin must free exactly the "
         "six replaced versions";
  EXPECT_EQ(rows.versions(), rows.num_rows());
  // Freed blocks stay in the pool for the next versions.
  EXPECT_EQ(g_live_bytes.load(std::memory_order_relaxed), raw_before)
      << "a reclamation handed blocks back to operator delete";

  // The same rule through the service: a pin held across two publishes
  // keeps their replaced versions; the first publish after its release
  // frees them all, leaving only the versions that publish replaced.
  const std::size_t n = 400;
  const auto edges = PowerLawEdges(n, 5, 23);
  MonteCarloOptions mc;
  mc.walks_per_node = 2;
  mc.epsilon = 0.25;
  mc.seed = 29;
  Engine engine(n, mc, ShardedOptions{3, 2});
  ASSERT_TRUE(engine.ApplyEvents(Inserts(edges)).ok());
  Service service(&engine);
  Churn churn(&edges, 9);
  const PublishPins::Pin pin = service.Pin();
  for (std::size_t w = 0; w < 2; ++w) {
    ASSERT_TRUE(service.Ingest(churn.Next()).ok());
    service.Quiesce();
  }
  const VersionedRows& table = service.segment_table();
  EXPECT_EQ(table.oldest_retired_seq(), pin.seq + 1);
  const std::size_t retired_while_held = table.retired();
  service.Unpin(pin);
  EXPECT_EQ(table.retired(), retired_while_held);
  ASSERT_TRUE(service.Ingest(churn.Next()).ok());
  service.Quiesce();
  EXPECT_EQ(table.oldest_retired_seq(), pin.seq + 3);
  EXPECT_EQ(table.versions() - table.retired(), table.num_rows());
}

TEST(FrozenRowTableTest, EmptyWindowWritesNoSegmentVersion) {
  // A window publishes from its own record, each shard's repair plan. A
  // window whose net delta is empty (one edge inserted and deleted
  // again) repairs nothing, so right after a churn window, whose plan
  // named many segments, it must write no segment version: the plan is
  // reset even when the repair takes its empty-delta early-out.
  const std::size_t n = 400;
  const auto edges = PowerLawEdges(n, 5, 61);
  MonteCarloOptions mc;
  mc.walks_per_node = 2;
  mc.epsilon = 0.25;
  mc.seed = 67;
  Engine engine(n, mc, ShardedOptions{2, 2});
  ASSERT_TRUE(engine.ApplyEvents(Inserts(edges)).ok());
  Service service(&engine);
  // A pin held across both windows keeps every replaced version alive,
  // so versions() moves only by what the publishes write.
  const PublishPins::Pin pin = service.Pin();
  const VersionedRows& table = service.segment_table();
  const std::size_t before_churn = table.versions();
  Churn churn(&edges, 9);
  ASSERT_TRUE(service.Ingest(churn.Next()).ok());
  service.Quiesce();
  const std::size_t after_churn = table.versions();
  ASSERT_GT(after_churn, before_churn) << "the churn window repaired nothing";

  Edge absent{0, 1};
  while (engine.graph().HasEdge(absent.src, absent.dst)) ++absent.dst;
  const std::vector<EdgeEvent> net_empty = {
      EdgeEvent{EdgeEvent::Kind::kInsert, absent},
      EdgeEvent{EdgeEvent::Kind::kDelete, absent}};
  ASSERT_TRUE(service.Ingest(net_empty).ok());
  service.Quiesce();
  EXPECT_EQ(service.published_epoch(), engine.windows_applied());
  EXPECT_EQ(table.versions(), after_churn)
      << "an empty window republished the previous window's segments";
  service.Unpin(pin);
}

/// A delete and re-insert of one edge (u, b) in one window nets to an
/// empty delta, yet it reorders rows: RemoveEdge back-fills u's hole
/// with the row's last slot and the insert appends b at the tail, and
/// b's in-row moves the same way. Frozen walks sample by slot index, so
/// the publish must write both rows (it names rows by the applied
/// prefix): the pinned view follows the live rows slot for slot, the
/// pin held from before the window still reads the old order, no
/// segment version is written, and at S = 1 a frozen walk from u draws
/// exactly what a live walk with the same RNG seed draws.
template <typename EngineT>
void ExpectDeleteReinsertRepublishesItsRows() {
  using Steps = typename EngineT::WalkSteps;
  constexpr bool kInSide = Steps::kSides > 1;
  const std::size_t n = 400;
  const auto edges = PowerLawEdges(n, 5, 71);
  MonteCarloOptions mc;
  mc.walks_per_node = 2;
  mc.epsilon = 0.25;
  mc.seed = 73;
  ShardedEngine<EngineT> engine(n, mc, ShardedOptions{1, 1});
  ASSERT_TRUE(engine.ApplyEvents(Inserts(edges)).ok());
  QueryService<EngineT> service(&engine);
  const DiGraph& g = engine.graph();

  // u has out-degree >= 3 and one copy of (u, b), which sits neither in
  // u's last out-slot nor, for u, in b's last in-slot.
  NodeId u = kInvalidNode;
  NodeId b = kInvalidNode;
  for (NodeId x = 0; x < n && u == kInvalidNode; ++x) {
    const auto outs = g.OutNeighbors(x);
    if (outs.size() < 3) continue;
    for (std::size_t p = 0; p + 1 < outs.size(); ++p) {
      const auto ins = g.InNeighbors(outs[p]);
      if (std::count(outs.begin(), outs.end(), outs[p]) == 1 &&
          ins.back() != x) {
        u = x;
        b = outs[p];
        break;
      }
    }
  }
  ASSERT_NE(u, kInvalidNode);
  const auto copy = [](std::span<const NodeId> row) {
    return std::vector<NodeId>(row.begin(), row.end());
  };
  const std::vector<NodeId> out_before = copy(g.OutNeighbors(u));
  const std::vector<NodeId> in_before = copy(g.InNeighbors(b));

  // A pin held across the window keeps every replaced version alive, so
  // versions() moves only by what the publish writes.
  const PublishPins::Pin before = service.Pin();
  const std::size_t segment_versions = service.segment_table().versions();
  const std::vector<EdgeEvent> window = {
      EdgeEvent{EdgeEvent::Kind::kDelete, Edge{u, b}},
      EdgeEvent{EdgeEvent::Kind::kInsert, Edge{u, b}}};
  ASSERT_TRUE(service.Ingest(window).ok());
  service.Quiesce();
  EXPECT_EQ(service.segment_table().versions(), segment_versions)
      << "an empty net delta wrote segment versions";

  const std::vector<NodeId> out_after = copy(g.OutNeighbors(u));
  EXPECT_NE(out_after, out_before) << "u's out-row kept its order";
  EXPECT_TRUE(std::is_permutation(out_after.begin(), out_after.end(),
                                  out_before.begin(), out_before.end()));
  if constexpr (kInSide) {
    EXPECT_NE(copy(g.InNeighbors(b)), in_before) << "b's in-row kept its order";
  }

  const PublishPins::Pin pin = service.Pin();
  const FrozenAdjacency now = service.AdjacencyAt(pin);
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(copy(now.OutNeighbors(v)), copy(g.OutNeighbors(v)))
        << "out-row " << v;
    if constexpr (kInSide) {
      ASSERT_EQ(copy(now.InNeighbors(v)), copy(g.InNeighbors(v)))
          << "in-row " << v;
    }
  }
  const FrozenAdjacency old = service.AdjacencyAt(before);
  EXPECT_EQ(copy(old.OutNeighbors(u)), out_before);
  if constexpr (kInSide) {
    EXPECT_EQ(copy(old.InNeighbors(b)), in_before);
  }

  const BasicPersonalizedWalker<Steps, typename EngineT::Store> live(
      &engine.shard(0).walk_store(), &g);
  for (const uint64_t rng_seed : {81u, 82u, 83u}) {
    std::vector<ScoredNode> frozen_ranked;
    std::vector<ScoredNode> live_ranked;
    ASSERT_TRUE(service
                    .PersonalizedTopK(u, 10, 2000, /*exclude_friends=*/true,
                                      rng_seed, &frozen_ranked)
                    .ok());
    ASSERT_TRUE(live.TopK(u, 10, 2000, /*exclude_friends=*/true, rng_seed,
                          &live_ranked)
                    .ok());
    ASSERT_EQ(frozen_ranked.size(), live_ranked.size());
    for (std::size_t i = 0; i < live_ranked.size(); ++i) {
      EXPECT_EQ(frozen_ranked[i].node, live_ranked[i].node) << "rank " << i;
      EXPECT_EQ(frozen_ranked[i].visits, live_ranked[i].visits)
          << "rank " << i;
    }
  }
  service.Unpin(pin);
  service.Unpin(before);
}

TEST(FrozenRowTableTest, DeleteReinsertRepublishesReorderedOutRow) {
  ExpectDeleteReinsertRepublishesItsRows<IncrementalPageRank>();
}

TEST(FrozenRowTableTest, DeleteReinsertRepublishesReorderedInRow) {
  ExpectDeleteReinsertRepublishesItsRows<IncrementalSalsa>();
}

/// After churn windows, each memory-ledger gauge reads what its pool's
/// accessors read: shard s's walk store at stripe s, then the row tables
/// (segments, out, in) at stripes S, S + 1, S + 2.
template <typename EngineT>
void ExpectLedgerGaugesMatchStructures() {
  const std::size_t n = 500;
  const std::size_t S = 2;
  const auto edges = PowerLawEdges(n, 6, 83);
  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.2;
  mc.seed = 89;
  ShardedEngine<EngineT> engine(n, mc, ShardedOptions{S, 2});
  ASSERT_TRUE(engine.ApplyEvents(Inserts(edges)).ok());
  QueryService<EngineT> service(&engine);
  Churn churn(&edges, 5);
  for (std::size_t w = 0; w < 6; ++w) {
    ASSERT_TRUE(service.Ingest(churn.Next()).ok());
  }
  service.Quiesce();

  const obs::EngineMetrics& om = engine.metric_handles();
  ASSERT_EQ(om.pool_live_bytes->stripes(), S + 3);
  ASSERT_EQ(om.pool_held_bytes->stripes(), S + 3);
  std::vector<const slab::BlockPool*> pools;
  for (std::size_t s = 0; s < S; ++s) {
    pools.push_back(&engine.shard(s).walk_store().pool());
  }
  for (const VersionedRows* table : {&service.segment_table(),
                                     &service.out_table(),
                                     &service.in_table()}) {
    pools.push_back(&table->pool());
  }
  for (std::size_t stripe = 0; stripe < pools.size(); ++stripe) {
    EXPECT_EQ(om.pool_live_bytes->Value(stripe), pools[stripe]->live_bytes())
        << "stripe " << stripe;
    EXPECT_EQ(om.pool_held_bytes->Value(stripe), pools[stripe]->held_bytes())
        << "stripe " << stripe;
    EXPECT_GE(pools[stripe]->held_bytes(), pools[stripe]->live_bytes())
        << "stripe " << stripe;
  }
  for (std::size_t s = 0; s < S; ++s) {
    EXPECT_GT(om.pool_live_bytes->Value(s), 0u) << "shard " << s;
  }
  EXPECT_GT(om.pool_live_bytes->Value(S), 0u);
  EXPECT_EQ(om.pool_live_bytes->Value(S + 2) > 0,
            EngineT::WalkSteps::kSides > 1);
}

TEST(MemoryLedgerTest, PageRankGaugesMatchStructures) {
  ExpectLedgerGaugesMatchStructures<IncrementalPageRank>();
}

TEST(MemoryLedgerTest, SalsaGaugesMatchStructures) {
  ExpectLedgerGaugesMatchStructures<IncrementalSalsa>();
}

/// Walk memory follows the stores' state, not their churn history. A
/// stationary churn (each window deletes a 32nd of the edges and
/// re-inserts the previous window's) moves rows to bigger and smaller
/// blocks all the time. Over the first windows the rows' blocks settle
/// from the layout's fill (a third of spare room) to the grow/trim
/// hysteresis's, ~20% more bytes at this scale; from then on each walk
/// store's pool keeps its live bytes within 10% of their value at the
/// middle window, and its free lists serve the moves: over the second
/// half the bytes it holds beyond its live blocks grow by at most one
/// chunk. (Its held bytes also follow the rows past the last class,
/// each its own allocation.) A pool whose memory followed churn history
/// grows through the second half as through the first.
template <typename EngineT>
void ExpectWalkMemoryFollowsState() {
  const std::size_t n = 10000;
  const std::size_t S = 2;
  Rng graph_rng(97);
  ChungLuOptions gen;
  gen.num_nodes = n;
  gen.num_edges = 8 * n;
  auto edges = ChungLuDirected(gen, &graph_rng);
  graph_rng.Shuffle(&edges);
  MonteCarloOptions mc;
  mc.walks_per_node = 4;
  mc.epsilon = 0.2;
  mc.seed = 101;
  ShardedEngine<EngineT> engine(n, mc, ShardedOptions{S, 2});
  ASSERT_TRUE(engine.ApplyEvents(Inserts(edges)).ok());
  QueryService<EngineT> service(&engine);
  Churn churn(&edges, 32);
  constexpr std::size_t kWindows = 120;
  std::vector<std::size_t> live_mid(S), spare_mid(S);
  for (std::size_t w = 1; w <= kWindows; ++w) {
    ASSERT_TRUE(service.Ingest(churn.Next()).ok());
    service.Quiesce();
    for (std::size_t s = 0; s < S; ++s) {
      const slab::BlockPool& pool = engine.shard(s).walk_store().pool();
      if (w == kWindows / 2) {
        live_mid[s] = pool.live_bytes();
        spare_mid[s] = pool.held_bytes() - pool.live_bytes();
      }
      if (w < kWindows / 2) continue;
      const double ratio = static_cast<double>(pool.live_bytes()) /
                           static_cast<double>(live_mid[s]);
      ASSERT_LE(ratio, 1.1) << "window " << w << " shard " << s;
      ASSERT_GE(ratio, 0.9) << "window " << w << " shard " << s;
    }
  }
  for (std::size_t s = 0; s < S; ++s) {
    const slab::BlockPool& pool = engine.shard(s).walk_store().pool();
    EXPECT_LE(pool.held_bytes() - pool.live_bytes(),
              spare_mid[s] + slab::BlockPool::kChunkBytes)
        << "shard " << s;
  }
}

TEST(MemoryLedgerTest, PageRankWalkMemoryFollowsState) {
  ExpectWalkMemoryFollowsState<IncrementalPageRank>();
}

TEST(MemoryLedgerTest, SalsaWalkMemoryFollowsState) {
  ExpectWalkMemoryFollowsState<IncrementalSalsa>();
}

TEST(QueryServiceDeathTest, SecondServiceOnOneEngineAborts) {
  // A service is its engine's one boundary sink: a second would detach
  // the first without a word and leave its views stale, so attaching it
  // aborts.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  MonteCarloOptions mc;
  mc.walks_per_node = 2;
  Engine engine(50, mc, ShardedOptions{2, 1});
  Service first(&engine);
  EXPECT_DEATH({ Service second(&engine); }, "already attached");
}

}  // namespace
}  // namespace fastppr
