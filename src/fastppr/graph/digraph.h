#ifndef FASTPPR_GRAPH_DIGRAPH_H_
#define FASTPPR_GRAPH_DIGRAPH_H_

// The social graph (see DESIGN.md sections 5 and 7): one slab-backed
// dynamic directed multigraph, the only graph class the engines, the
// walkers and the checkpoints use.
//
// The incremental engines spend essentially all of their time walking
// the social graph: every repaired segment is a chain of
// RandomOutNeighbor calls, and every event is a graph mutation. Both
// out- and in-adjacency are kept, so forward (PageRank) and alternating
// forward/backward (SALSA) walks sample a neighbour in O(1). All
// adjacency lists live in two flat arenas, the idiom store/walk_slab.h
// applies to the walk stores. Parallel edges are allowed (a user may be
// followed through several products); self-loops are allowed but the
// generators avoid them.
//
// Layout. Each node's out-list occupies one *block* — a contiguous slot
// run of a quarter-spaced size class (1..8, then {5,6,7,8} << k: at most
// 25% internal slack, versus up to 100% for power-of-two classes) inside
// the out arena; likewise for in-lists in the in arena. A list that
// outgrows its block relocates into a block ~1.5x larger; a shrinking
// list relocates down once occupancy falls below one quarter
// (hysteresis). Blocks store structure-of-arrays columns, so the
// neighbour ids of a node are one contiguous NodeId run: uniform
// sampling is a bounded-random index plus one load, and the locate scan
// of a removal is a vectorizable sweep.
//
// Compact encoding. A block is addressed by a 32-bit arena slot index
// plus a 7-bit size class; degree and class pack into the second word,
// so a BlockRef is 8 bytes. Each entry's *twin backpointer* — the
// position of the edge's mirror entry inside the other endpoint's
// block, i.e. an offset relative to that block's size-class base — is
// 24 bits, stored as split uint16/uint8 columns (6 bytes of
// backpointers per edge). 24 bits matches the system-wide ordinal bound
// of store/walk_slab.h: per-node degree is capped at 2^24 per side and
// the arena at 2^32 slots per side, both enforced by FASTPPR_CHECK
// rather than silent wraparound.
//
// Freed blocks park on per-class free lists (O(1) push/pop — the hot
// mutation path never searches). An allocation whose exact class list
// is empty SPLITS the smallest sufficient free block of a larger class
// (found via a 2-word nonempty-class bitmask) instead of growing the
// arena, and a block freed at the arena tail retreats the high-water
// mark immediately. When parked free slots cross a fragmentation
// threshold, an amortized coalescing pass merges ALL adjacent free
// blocks (strictly stronger than buddy-merge: any adjacent pair
// coalesces, not just aligned buddies), releases a merged tail run, and
// re-parks the rest as maximal class-sized blocks; once free slots
// exceed 40% of the arena — where merging stops helping because the
// gaps are pinned between live blocks — a compaction slides every live
// block left (order-preserving, so sampling is untouched) and releases
// the whole slack. Fragmentation is therefore bounded at ~1.7x the
// live footprint: under steady churn the high-water mark plateaus
// instead of creeping.
//
// Mutation cost. Deletion is: locate the edge in the (bounded,
// human-scale) out-list of the source, then swap-remove BOTH entries in
// O(1) via the twins, fixing up the moved entries' backpointers. AddEdge
// is O(1) amortized; RemoveEdge is an O(outdeg(src)) contiguous locate
// plus an O(1) unlink, and NEVER scans the heavy-tailed in-degree side
// (a celebrity has millions of followers). Under the paper's arrival
// models the locate is O(1) in expectation too: the source of a
// uniformly random edge has expected out-degree m/n. (A per-edge hash
// index would make the locate O(1) worst-case, but costs more bytes per
// edge than the adjacency data itself — measured, it more than doubled
// the footprint.)
//
// Epoch versioning. Every successful mutation bumps a 64-bit epoch.
// The sharded engine shares ONE graph across all shards under a
// single-writer contract: mutations happen only in the ingest phase
// between parallel repair phases, so shards read a frozen epoch with no
// synchronization at all — the engine asserts the epoch did not move
// across a parallel section.
//
// Determinism. Sampling is defined over the canonical slot order:
// neighbour k of node v is the k-th live slot of v's block, a pure
// function of the mutation history, never of thread count or
// allocation addresses. RemoveEdge removes the first stored occurrence
// from the out-list and back-fills the hole with the last slot; the
// in-list removes the *twin* of that occurrence, the same swap-remove.
// A delete and re-insert of one edge therefore reorders both rows.
// Slot order and the twin pairing are the graph's whole state: a
// checkpoint writes them (SaveTo), and blocks, free lists and offsets
// are the allocator's alone.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "fastppr/graph/types.h"
#include "fastppr/util/random.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// Dynamic directed multigraph over a node universe [0, n) with O(1)
/// amortized AddEdge, locate + O(1) RemoveEdge, and contiguous per-node
/// neighbour runs for cache-local uniform sampling.
class DiGraph {
 public:
  /// Hard per-node degree cap per side (the 24-bit twin encoding).
  static constexpr uint32_t kMaxDegree = uint32_t{1} << 24;

  /// Quarter-spaced size-class table: classes 0..7 are 1..8 slots, class
  /// 8+i is (5 + i%4) << (i/4 + 1) slots — 10, 12, 14, 16, 20, 24, ...
  /// Monotone in the class index; worst-case internal slack 25%. Class
  /// 91 is 2^24 slots, the kMaxDegree block. Public because tests and
  /// benches reason about the expected block footprint.
  static constexpr uint32_t kNumClasses = 92;
  static constexpr uint32_t ClassSlots(uint32_t cls) {
    return cls < 8 ? cls + 1
                   : (5 + (cls - 8) % 4) << ((cls - 8) / 4 + 1);
  }
  /// Smallest class whose block holds `slots` entries (slots >= 1).
  static constexpr uint32_t ClassFor(uint32_t slots) {
    if (slots <= 8) return slots - 1;
    const uint32_t t = slots - 1;  // >= 8
    const uint32_t g = static_cast<uint32_t>(std::bit_width(t)) - 4;
    const uint32_t q = t >> (g + 1);  // in [4, 8)
    return 8 + 4 * g + (q - 4);
  }
  /// Largest class whose block fits inside `slots` (slots >= 1) — the
  /// greedy step when a free run is re-parked as class-sized blocks.
  static constexpr uint32_t ClassFloor(uint32_t slots) {
    if (slots <= 9) return std::min(slots, 8u) - 1;
    const uint32_t b = static_cast<uint32_t>(std::bit_width(slots));
    const uint32_t q = slots >> (b - 3);  // in [4, 8)
    // Floor value q * 2^(b-3): q == 4 is class 8 << (b-4), else q << (b-3).
    return q == 4 ? 4 * b - 9 : 4 * b + q - 13;
  }

  /// An empty graph over `num_nodes` nodes.
  explicit DiGraph(std::size_t num_nodes = 0);

  std::size_t num_nodes() const { return out_.refs.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Mutation counter: bumped by every successful AddEdge/RemoveEdge.
  /// The sharded engine's single-writer contract is stated in terms of
  /// this value — parallel readers run only while it is frozen.
  uint64_t epoch() const { return epoch_; }

  /// Grows the node universe to at least `num_nodes`.
  void EnsureNodes(std::size_t num_nodes);

  /// Adds edge src->dst in O(1) amortized. InvalidArgument if either
  /// endpoint is out of range.
  Status AddEdge(NodeId src, NodeId dst);

  /// Removes the first stored occurrence of src->dst: one contiguous
  /// O(outdeg(src)) locate, then an O(1) two-sided unlink — the
  /// in-degree side is never scanned. NotFound if absent.
  Status RemoveEdge(NodeId src, NodeId dst);

  /// Contiguous scan of src's out-run.
  bool HasEdge(NodeId src, NodeId dst) const;

  /// Number of parallel copies of src->dst (O(outdeg(src)) scan).
  std::size_t EdgeMultiplicity(NodeId src, NodeId dst) const;

  std::size_t OutDegree(NodeId v) const { return out_.refs[v].deg; }
  std::size_t InDegree(NodeId v) const { return in_.refs[v].deg; }

  /// The out-neighbours of v in canonical slot order: one contiguous
  /// NodeId run inside the out arena. Invalidated by any mutation.
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {out_.ids.data() + out_.refs[v].off, out_.refs[v].deg};
  }
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_.ids.data() + in_.refs[v].off, in_.refs[v].deg};
  }

  /// Uniformly random out-neighbour (over slots); kInvalidNode if the
  /// out-degree is 0.
  NodeId RandomOutNeighbor(NodeId v, Rng* rng) const {
    return Sample(OutNeighbors(v), rng);
  }
  /// Uniformly random in-neighbour; kInvalidNode if the in-degree is 0.
  NodeId RandomInNeighbor(NodeId v, Rng* rng) const {
    return Sample(InNeighbors(v), rng);
  }

  /// All edges in canonical slot order (materialized; O(m)).
  std::vector<Edge> Edges() const;

  /// Number of dangling (outdegree-0) nodes.
  std::size_t CountDangling() const;

  /// Heap bytes held by the adjacency arenas, block tables and free
  /// lists (capacities, not sizes — what the process actually pays).
  std::size_t MemoryBytes() const;

  /// Arena slots currently parked on free lists (recycling telemetry).
  std::size_t free_out_slots() const { return out_.free_slots; }
  std::size_t free_in_slots() const { return in_.free_slots; }
  /// Number of parked out-side free blocks (drops when a coalescing
  /// pass merges adjacent blocks or releases the arena tail).
  std::size_t free_out_blocks() const { return FreeBlockCount(out_); }
  /// Logical arena high-water mark, in slots (retreats on tail release).
  std::size_t out_arena_slots() const { return out_.arena_size; }
  std::size_t in_arena_slots() const { return in_.arena_size; }

  /// Merges every run of adjacent free blocks into maximal class-sized
  /// blocks and releases a merged run touching the arena tail. Runs
  /// automatically once parked free slots cross the fragmentation
  /// threshold; exposed for tests and explicit memory trimming.
  void CoalesceFreeBlocks() {
    Coalesce(&out_);
    Coalesce(&in_);
  }

  /// Full invariant audit (twin symmetry, degree/count consistency,
  /// exact live-block/free-extent tiling of both arenas). O(n + m +
  /// arena); test-only, aborts via FASTPPR_CHECK on violation.
  void CheckConsistency() const;

  /// Lays the graph out from its out-rows, both sides exact-fit: each
  /// node's block is the smallest class that holds its row, packed in
  /// node order with no free block. Node u's out-row is the next
  /// out_degrees[u] entries of `ids`, and twins[i] is out-slot i's
  /// position in its target's in-row; the in-rows are rebuilt from the
  /// twins. Slot order and the twin pairing are all that decides
  /// neighbour draws and RemoveEdge's back-fill, so a graph laid out
  /// from another's rows behaves identically whatever either's
  /// allocation history. Returns false if an id, degree or twin is out
  /// of range or two out-slots claim one in-slot (the graph is then
  /// unspecified); never crashes on garbage input.
  bool AssignOutRows(std::span<const uint32_t> out_degrees,
                     std::span<const NodeId> ids,
                     std::span<const uint32_t> twins, uint64_t epoch);

  /// Serializes the graph as rows (DESIGN.md §8): the epoch, every
  /// node's out-degree, the out-rows' neighbour ids in slot order, then
  /// each out-slot's twin. No offset, capacity or free list: the layout
  /// is the allocator's. `Sink` is store/arena_io.h's ArenaWriter or
  /// store/checkpoint.h's FramedFileSink, `Src` an ArenaReader;
  /// templated so graph/ stays independent of store/.
  template <typename Sink>
  void SaveTo(Sink* w) const {
    w->Pod(epoch_);
    for (const BlockRef& ref : out_.refs) {
      w->Pod(static_cast<uint32_t>(ref.deg));
    }
    for (NodeId u = 0; u < num_nodes(); ++u) w->Span(OutNeighbors(u));
    std::vector<uint32_t> twins;  // one row at a time
    for (const BlockRef& ref : out_.refs) {
      twins.resize(ref.deg);
      for (uint32_t p = 0; p < ref.deg; ++p) {
        twins[p] = out_.Twin(ref.off + p);
      }
      w->Span(std::span<const uint32_t>(twins));
    }
  }

  /// Restores SaveTo's rows over this graph's num_nodes() nodes through
  /// AssignOutRows. Returns false (caller maps to Corruption) on
  /// truncation or rows no writer could have produced.
  template <typename Src>
  bool LoadFrom(Src* r) {
    uint64_t epoch = 0;
    std::vector<uint32_t> degrees;
    if (!r->Pod(&epoch) || !r->Append(num_nodes(), &degrees)) return false;
    uint64_t edges = 0;
    for (const uint32_t d : degrees) edges += d;
    std::vector<NodeId> ids;
    std::vector<uint32_t> twins;
    if (!r->Append(edges, &ids) || !r->Append(edges, &twins)) return false;
    return AssignOutRows(degrees, ids, twins, epoch) ||
           r->Fail("adjacency rows out of range or twins unpaired");
  }

 private:
  /// "No block" size-class sentinel (7-bit class field).
  static constexpr uint32_t kNoClass = 0x7F;

  /// One node's block in an arena: slots [off, off + ClassSlots(cls))
  /// with the first `deg` slots live. 8 bytes: 32-bit slot index +
  /// packed degree/class.
  struct BlockRef {
    uint32_t off = 0;
    uint32_t deg : 25 {0};
    uint32_t cls : 7 {kNoClass};
  };
  static_assert(sizeof(BlockRef) == 8);

  /// One direction of the graph. The two sides are mirror images: an
  /// out-side slot holds {dst, twin offset into dst's in-block}, an
  /// in-side slot holds {src, twin offset into src's out-block}; all
  /// mutation algorithms are written once against this struct so the
  /// twin-fixup and shrink logic cannot drift between directions.
  struct Side {
    std::vector<NodeId> ids;        ///< neighbour id column (SoA)
    std::vector<uint16_t> twin_lo;  ///< twin offset low 16 bits (SoA)
    std::vector<uint8_t> twin_hi;   ///< twin offset high 8 bits (SoA)
    std::vector<BlockRef> refs;     ///< per-node block table
    /// Per-class free-block stacks (offsets); O(1) park/pop.
    std::vector<uint32_t> free_lists[kNumClasses];
    /// Bit c set iff free_lists[c] is non-empty (the split-alloc scan).
    uint64_t class_mask[2] = {0, 0};
    uint32_t arena_size = 0;
    std::size_t free_slots = 0;
    /// Parked-slot level that triggers the next coalescing pass.
    std::size_t coalesce_trigger = 64;

    uint32_t Twin(std::size_t slot) const {
      return twin_lo[slot] |
             (static_cast<uint32_t>(twin_hi[slot]) << 16);
    }
    void SetTwin(std::size_t slot, uint32_t twin) {
      twin_lo[slot] = static_cast<uint16_t>(twin);
      twin_hi[slot] = static_cast<uint8_t>(twin >> 16);
    }
  };

  static NodeId Sample(std::span<const NodeId> row, Rng* rng) {
    if (row.empty()) return kInvalidNode;
    return row[rng->UniformIndex(row.size())];
  }

  /// Pops a free block of class `cls` (exact class, or the smallest
  /// sufficient larger class — the remainder is re-parked as class-sized
  /// blocks), or carves off the arena tail (growing the SoA columns).
  static uint32_t AllocBlock(Side* side, uint32_t cls);
  /// Parks [off, off + ClassSlots(cls)) on its class free list; a block
  /// at the arena tail retreats the high-water mark instead. May kick
  /// off a coalescing pass past the fragmentation threshold.
  static void FreeBlock(Side* side, uint32_t off, uint32_t cls);
  /// Parks a free run of `len` slots as greedy maximal class blocks.
  static void ParkRun(Side* side, uint32_t off, uint32_t len);
  /// The amortized coalescing pass (see the header comment).
  static void Coalesce(Side* side);
  /// Full defragmentation: slides every live block left in offset order
  /// (slot order — and with it canonical sampling — is preserved; twins
  /// are block-relative, so only refs[].off changes) and releases all
  /// slack. Triggered when merging can no longer help (free slots
  /// exceed 40% of the arena), bounding fragmentation at ~1.7x live.
  static void Compact(Side* side);
  static std::size_t FreeBlockCount(const Side& side) {
    std::size_t count = 0;
    for (const auto& list : side.free_lists) count += list.size();
    return count;
  }

  /// Resets `side` to one exact-fit block per node with a nonzero
  /// degree, packed in node order; every slot holds kInvalidNode until
  /// written. False if the blocks exceed the arena's 2^32 slots.
  static bool LayOut(Side* side, std::span<const uint32_t> degrees);

  /// Moves node v's block to class `cls`, preserving slot order.
  static void Relocate(Side* side, NodeId v, uint32_t cls);
  /// Ensures node v's block has room for one more slot.
  static void ReserveSlot(Side* side, NodeId v);

  /// Swap-removes the entry of `v` at local position `p` on `side`,
  /// fixing up the moved entry's twin on `other`, then shrinking or
  /// freeing the block as the degree falls.
  static void RemoveAt(Side* side, Side* other, NodeId v, uint32_t p);

  /// resize() with a bounded-headroom reserve: std::vector's bare
  /// doubling would park up to 2x slack on the hot arenas; a 1/16
  /// headroom keeps growth amortized O(1) at ~6% worst-case slack.
  template <typename T>
  static void GrowColumn(std::vector<T>* column, std::size_t size) {
    if (size > column->capacity()) {
      column->reserve(size + size / 16);
    }
    column->resize(size);
  }

  Side out_;
  Side in_;
  std::size_t num_edges_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace fastppr

#endif  // FASTPPR_GRAPH_DIGRAPH_H_
