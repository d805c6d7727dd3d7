#include "fastppr/graph/digraph.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "fastppr/util/check.h"

namespace fastppr {

namespace {

inline void SetClassBit(uint64_t* mask, uint32_t c) {
  mask[c >> 6] |= uint64_t{1} << (c & 63);
}

inline void ClearClassBit(uint64_t* mask, uint32_t c) {
  mask[c >> 6] &= ~(uint64_t{1} << (c & 63));
}

/// Smallest nonempty class with index >= c, or -1. The class table is
/// monotone in the index, so this is also the smallest sufficient block.
inline int NextNonEmptyClass(const uint64_t* mask, uint32_t c) {
  uint64_t w = mask[c >> 6] & (~uint64_t{0} << (c & 63));
  if (w != 0) {
    return static_cast<int>((c & ~63u) + std::countr_zero(w));
  }
  for (uint32_t word = (c >> 6) + 1; word < 2; ++word) {
    if (mask[word] != 0) {
      return static_cast<int>(64 * word + std::countr_zero(mask[word]));
    }
  }
  return -1;
}

}  // namespace

DiGraph::DiGraph(std::size_t num_nodes) {
  out_.refs.resize(num_nodes);
  in_.refs.resize(num_nodes);
}

void DiGraph::EnsureNodes(std::size_t num_nodes) {
  if (num_nodes > out_.refs.size()) {
    out_.refs.resize(num_nodes);
    in_.refs.resize(num_nodes);
  }
}

void DiGraph::ParkRun(Side* side, uint32_t off, uint32_t len) {
  while (len > 0) {
    const uint32_t cls = std::min(ClassFloor(len), kNumClasses - 1);
    const uint32_t slots = ClassSlots(cls);
    side->free_lists[cls].push_back(off);
    SetClassBit(side->class_mask, cls);
    side->free_slots += slots;
    off += slots;
    len -= slots;
  }
}

uint32_t DiGraph::AllocBlock(Side* side, uint32_t cls) {
  const uint32_t want = ClassSlots(cls);
  // Exact-class pop, or split the smallest sufficient larger free block
  // (2-word bitmask scan) — the arena only grows when NO parked block
  // fits.
  const int c = NextNonEmptyClass(side->class_mask, cls);
  if (c >= 0) {
    std::vector<uint32_t>& list = side->free_lists[c];
    const uint32_t off = list.back();
    list.pop_back();
    if (list.empty()) {
      ClearClassBit(side->class_mask, static_cast<uint32_t>(c));
    }
    const uint32_t got = ClassSlots(static_cast<uint32_t>(c));
    side->free_slots -= got;
    if (got > want) ParkRun(side, off + want, got - want);
    return off;
  }
  // Carve off the arena tail. The 32-bit slot index bounds each side's
  // arena at 2^32 slots; overflow aborts rather than wrapping.
  FASTPPR_CHECK_MSG(
      static_cast<uint64_t>(side->arena_size) + want <=
          std::numeric_limits<uint32_t>::max(),
      "adjacency arena exceeds 2^32 slots");
  const uint32_t off = side->arena_size;
  side->arena_size += want;
  GrowColumn(&side->ids, side->arena_size);
  GrowColumn(&side->twin_lo, side->arena_size);
  GrowColumn(&side->twin_hi, side->arena_size);
  return off;
}

void DiGraph::FreeBlock(Side* side, uint32_t off, uint32_t cls) {
  const uint32_t slots = ClassSlots(cls);
  if (off + slots == side->arena_size) {
    // Tail release: retreat the high-water mark instead of parking.
    side->arena_size = off;
    side->ids.resize(off);
    side->twin_lo.resize(off);
    side->twin_hi.resize(off);
    return;
  }
  side->free_lists[cls].push_back(off);
  SetClassBit(side->class_mask, cls);
  side->free_slots += slots;
  // Amortized defragmentation: once parked slots cross the trigger AND
  // make up a quarter of the arena, merge adjacent free blocks and
  // release the tail (O(F log F) paid only after O(F) parked growth).
  // Past 40% free, merging stops helping — the gaps are pinned between
  // live blocks — so compact instead: slide every live block left
  // (twins are block-relative, so only refs[].off moves) and hand the
  // entire slack back. (40%, not 50%: measured under steady churn the
  // free share hovers just below one half, so a 50% trigger almost
  // never fires and the arena plateaus ~35% higher.) Fragmentation is
  // therefore bounded: the arena never exceeds ~1.7x the live block
  // footprint, which is what keeps the high-water mark from creeping
  // under steady churn.
  if (side->free_slots >= side->coalesce_trigger &&
      side->free_slots * 4 > side->arena_size) {
    if (side->free_slots * 5 > side->arena_size * 2 &&
        side->arena_size >= side->refs.size()) {
      Compact(side);
    } else {
      Coalesce(side);
    }
  }
}

void DiGraph::Compact(Side* side) {
  // Live blocks in offset order; packing left-to-right only moves a
  // block toward lower offsets, so the copy is safe in place.
  std::vector<std::pair<uint32_t, NodeId>> blocks;  // (off, node)
  for (NodeId u = 0; u < side->refs.size(); ++u) {
    if (side->refs[u].cls != kNoClass) {
      blocks.emplace_back(side->refs[u].off, u);
    }
  }
  std::sort(blocks.begin(), blocks.end());
  uint32_t at = 0;
  for (const auto& [off, u] : blocks) {
    BlockRef& r = side->refs[u];
    if (at != off) {
      for (uint32_t p = 0; p < r.deg; ++p) {
        side->ids[at + p] = side->ids[off + p];
        side->twin_lo[at + p] = side->twin_lo[off + p];
        side->twin_hi[at + p] = side->twin_hi[off + p];
      }
      r.off = at;
    }
    at += ClassSlots(r.cls);
  }
  for (auto& list : side->free_lists) list.clear();
  side->class_mask[0] = side->class_mask[1] = 0;
  side->free_slots = 0;
  side->arena_size = at;
  side->ids.resize(at);
  side->twin_lo.resize(at);
  side->twin_hi.resize(at);
  side->coalesce_trigger = std::max<std::size_t>(64, at / 4);
}

void DiGraph::Coalesce(Side* side) {
  std::vector<std::pair<uint32_t, uint32_t>> runs;  // (off, len)
  runs.reserve(FreeBlockCount(*side));
  for (uint32_t cls = 0; cls < kNumClasses; ++cls) {
    for (uint32_t off : side->free_lists[cls]) {
      runs.emplace_back(off, ClassSlots(cls));
    }
    side->free_lists[cls].clear();
  }
  side->class_mask[0] = side->class_mask[1] = 0;
  side->free_slots = 0;
  std::sort(runs.begin(), runs.end());
  std::size_t i = 0;
  while (i < runs.size()) {
    const uint32_t off = runs[i].first;
    uint32_t end = off + runs[i].second;
    ++i;
    while (i < runs.size() && runs[i].first == end) {
      end += runs[i].second;
      ++i;
    }
    if (end == side->arena_size) {
      // A merged run reaching the tail hands its slots back whole.
      side->arena_size = off;
      side->ids.resize(off);
      side->twin_lo.resize(off);
      side->twin_hi.resize(off);
    } else {
      ParkRun(side, off, end - off);
    }
  }
  side->coalesce_trigger =
      std::max<std::size_t>(64, 2 * side->free_slots);
}

void DiGraph::Relocate(Side* side, NodeId v, uint32_t cls) {
  FASTPPR_CHECK(cls < kNumClasses);
  const uint32_t off = AllocBlock(side, cls);
  BlockRef& r = side->refs[v];
  for (uint32_t p = 0; p < r.deg; ++p) {
    side->ids[off + p] = side->ids[r.off + p];
    side->twin_lo[off + p] = side->twin_lo[r.off + p];
    side->twin_hi[off + p] = side->twin_hi[r.off + p];
  }
  // Commit the move BEFORE freeing the vacated block: FreeBlock may run
  // a compaction pass, which walks the block table and must see this
  // node at its new home (a stale entry would be treated as live at the
  // freed offset — double-claimed, then corrupted).
  const uint32_t old_off = r.off;
  const uint32_t old_cls = r.cls;
  r.off = off;
  r.cls = cls;
  if (old_cls != kNoClass) FreeBlock(side, old_off, old_cls);
}

void DiGraph::ReserveSlot(Side* side, NodeId v) {
  BlockRef& r = side->refs[v];
  if (r.cls == kNoClass) {
    Relocate(side, v, ClassFor(1));
  } else if (r.deg == ClassSlots(r.cls)) {
    // Grow ~1.5x (to the class holding cap + cap/2 + 1), keeping
    // appends amortized O(1) without power-of-two's up-to-2x slack. The
    // clamp keeps the target inside the table near the kMaxDegree cap
    // (class kNumClasses-1 holds 2^24 slots, every legal degree).
    Relocate(side, v,
             std::min(ClassFor(r.deg + r.deg / 2 + 1), kNumClasses - 1));
  }
}

Status DiGraph::AddEdge(NodeId src, NodeId dst) {
  if (src >= num_nodes() || dst >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  FASTPPR_CHECK_MSG(
      out_.refs[src].deg < kMaxDegree && in_.refs[dst].deg < kMaxDegree,
      "per-node degree exceeds the 24-bit twin encoding");
  ReserveSlot(&out_, src);
  ReserveSlot(&in_, dst);
  BlockRef& orr = out_.refs[src];
  BlockRef& irr = in_.refs[dst];
  const uint32_t po = orr.deg;
  const uint32_t pi = irr.deg;
  out_.ids[orr.off + po] = dst;
  out_.SetTwin(orr.off + po, pi);
  in_.ids[irr.off + pi] = src;
  in_.SetTwin(irr.off + pi, po);
  ++orr.deg;
  ++irr.deg;
  ++num_edges_;
  ++epoch_;
  return Status::OK();
}

void DiGraph::RemoveAt(Side* side, Side* other, NodeId v,
                             uint32_t p) {
  BlockRef& r = side->refs[v];
  const uint32_t last = r.deg - 1;
  if (p != last) {
    // Swap-remove: the tail entry fills the hole; its twin on the other
    // side is re-aimed at the new position.
    const NodeId moved_id = side->ids[r.off + last];
    const uint32_t moved_twin = side->Twin(r.off + last);
    side->ids[r.off + p] = moved_id;
    side->SetTwin(r.off + p, moved_twin);
    other->SetTwin(other->refs[moved_id].off + moved_twin, p);
  }
  --r.deg;
  // Shrink with hysteresis: once only a quarter of the block is live,
  // relocate to the class holding 2x the degree (so churn around a
  // boundary does not thrash). Degree-0 nodes give their block back
  // entirely.
  if (r.deg == 0 && r.cls != kNoClass) {
    const uint32_t off = r.off;
    const uint32_t cls = r.cls;
    r.off = 0;
    r.cls = kNoClass;
    FreeBlock(side, off, cls);
  } else if (r.deg > 0 && 4 * r.deg <= ClassSlots(r.cls)) {
    const uint32_t target = ClassFor(2 * r.deg);
    if (target < r.cls) Relocate(side, v, target);
  }
}

Status DiGraph::RemoveEdge(NodeId src, NodeId dst) {
  if (src >= num_nodes() || dst >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  // Locate: one contiguous sweep of the (human-scale) out-run.
  const BlockRef& orr = out_.refs[src];
  const NodeId* run = out_.ids.data() + orr.off;
  const NodeId* hit = std::find(run, run + orr.deg, dst);
  if (hit == run + orr.deg) return Status::NotFound("edge not present");
  const uint32_t p = static_cast<uint32_t>(hit - run);

  // Unlink both sides in O(1). In-side first: its swap fixup may
  // retarget the out-entry that is about to be moved over the hole, and
  // the out-side removal re-reads it.
  RemoveAt(&in_, &out_, dst, out_.Twin(orr.off + p));
  RemoveAt(&out_, &in_, src, p);
  --num_edges_;
  ++epoch_;
  return Status::OK();
}

bool DiGraph::LayOut(Side* side, std::span<const uint32_t> degrees) {
  *side = Side{};
  side->refs.resize(degrees.size());
  uint64_t total = 0;
  for (std::size_t v = 0; v < degrees.size(); ++v) {
    if (degrees[v] == 0) continue;
    BlockRef& ref = side->refs[v];
    ref.off = static_cast<uint32_t>(total);
    ref.deg = degrees[v];
    ref.cls = ClassFor(degrees[v]);
    total += ClassSlots(ref.cls);
    if (total > std::numeric_limits<uint32_t>::max()) return false;
  }
  side->arena_size = static_cast<uint32_t>(total);
  side->ids.assign(total, kInvalidNode);
  side->twin_lo.assign(total, 0);
  side->twin_hi.assign(total, 0);
  return true;
}

bool DiGraph::AssignOutRows(std::span<const uint32_t> out_degrees,
                            std::span<const NodeId> ids,
                            std::span<const uint32_t> twins,
                            uint64_t epoch) {
  const std::size_t n = out_degrees.size();
  uint64_t edges = 0;
  for (const uint32_t d : out_degrees) {
    if (d > kMaxDegree) return false;
    edges += d;
  }
  if (ids.size() != edges || twins.size() != edges) return false;
  std::vector<uint32_t> in_degrees(n, 0);
  for (const NodeId v : ids) {
    if (v >= n || in_degrees[v] == kMaxDegree) return false;
    ++in_degrees[v];
  }
  if (!LayOut(&out_, out_degrees) || !LayOut(&in_, in_degrees)) return false;
  std::size_t i = 0;
  for (NodeId u = 0; u < n; ++u) {
    const BlockRef& out = out_.refs[u];
    for (uint32_t p = 0; p < out.deg; ++p, ++i) {
      const NodeId v = ids[i];
      const uint32_t twin = twins[i];
      const BlockRef& in = in_.refs[v];
      // Every in-slot is claimed exactly once: the twins of v's
      // in-degree many out-slots must be a permutation of its row.
      if (twin >= in.deg || in_.ids[in.off + twin] != kInvalidNode) {
        return false;
      }
      out_.ids[out.off + p] = v;
      out_.SetTwin(out.off + p, twin);
      in_.ids[in.off + twin] = u;
      in_.SetTwin(in.off + twin, p);
    }
  }
  num_edges_ = static_cast<std::size_t>(edges);
  epoch_ = epoch;
  return true;
}

bool DiGraph::HasEdge(NodeId src, NodeId dst) const {
  if (src >= num_nodes() || dst >= num_nodes()) return false;
  const auto outs = OutNeighbors(src);
  return std::find(outs.begin(), outs.end(), dst) != outs.end();
}

std::size_t DiGraph::EdgeMultiplicity(NodeId src, NodeId dst) const {
  if (src >= num_nodes() || dst >= num_nodes()) return 0;
  const auto outs = OutNeighbors(src);
  return static_cast<std::size_t>(
      std::count(outs.begin(), outs.end(), dst));
}

std::vector<Edge> DiGraph::Edges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : OutNeighbors(u)) edges.push_back(Edge{u, v});
  }
  return edges;
}

std::size_t DiGraph::CountDangling() const {
  std::size_t dangling = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (OutDegree(v) == 0) ++dangling;
  }
  return dangling;
}

std::size_t DiGraph::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const Side* side : {&out_, &in_}) {
    bytes += side->ids.capacity() * sizeof(NodeId) +
             side->twin_lo.capacity() * sizeof(uint16_t) +
             side->twin_hi.capacity() * sizeof(uint8_t) +
             side->refs.capacity() * sizeof(BlockRef);
    for (const auto& list : side->free_lists) {
      bytes += list.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

void DiGraph::CheckConsistency() const {
  const std::size_t n = num_nodes();
  for (const Side* side : {&out_, &in_}) {
    const Side* other = side == &out_ ? &in_ : &out_;
    // Exact tiling audit: every arena slot belongs to exactly one live
    // block or one parked free block.
    std::vector<uint8_t> owner(side->arena_size, 0);
    auto claim = [&owner](uint32_t off, uint32_t len) {
      FASTPPR_CHECK(static_cast<std::size_t>(off) + len <= owner.size());
      for (uint32_t s = off; s < off + len; ++s) {
        FASTPPR_CHECK_MSG(owner[s] == 0, "arena slot claimed twice");
        owner[s] = 1;
      }
    };
    std::size_t total = 0;
    for (NodeId u = 0; u < n; ++u) {
      const BlockRef& r = side->refs[u];
      FASTPPR_CHECK(r.cls != kNoClass || r.deg == 0);
      if (r.cls != kNoClass) {
        FASTPPR_CHECK(r.cls < kNumClasses);
        FASTPPR_CHECK(r.deg <= ClassSlots(r.cls));
        claim(r.off, ClassSlots(r.cls));
      }
      total += r.deg;
      // Twin symmetry of every entry.
      for (uint32_t p = 0; p < r.deg; ++p) {
        const NodeId v = side->ids[r.off + p];
        FASTPPR_CHECK(v < n);
        const uint32_t q = side->Twin(r.off + p);
        FASTPPR_CHECK(q < other->refs[v].deg);
        FASTPPR_CHECK(other->ids[other->refs[v].off + q] == u);
        FASTPPR_CHECK(other->Twin(other->refs[v].off + q) == p);
      }
    }
    FASTPPR_CHECK(total == num_edges_);
    // Free lists: accounted, mask-consistent, and tiling the gaps.
    std::size_t free_total = 0;
    for (uint32_t cls = 0; cls < kNumClasses; ++cls) {
      const auto& list = side->free_lists[cls];
      const bool bit =
          ((side->class_mask[cls >> 6] >> (cls & 63)) & uint64_t{1}) != 0;
      FASTPPR_CHECK_MSG(bit == !list.empty(),
                        "class mask out of sync with free lists");
      for (uint32_t off : list) {
        claim(off, ClassSlots(cls));
        free_total += ClassSlots(cls);
      }
    }
    FASTPPR_CHECK(free_total == side->free_slots);
    for (uint8_t o : owner) FASTPPR_CHECK_MSG(o == 1, "leaked arena slot");
  }
}

}  // namespace fastppr
