#include "fastppr/store/walk_store.h"

#include <algorithm>

#include "fastppr/util/check.h"

namespace fastppr {

namespace {

/// The delta's pivots for `side`: edge sources for side 0, targets for
/// side 1.
const WindowDelta::Side& DeltaSide(const WindowDelta& delta, uint32_t side) {
  return side == 0 ? delta.out() : delta.in();
}

/// The neighbours a position on `side` of v can step to.
template <typename Steps>
std::span<const NodeId> SideNeighbors(const DiGraph& g, uint32_t side,
                                      NodeId v) {
  return (Steps::kSides == 1 || side == 0) ? g.OutNeighbors(v)
                                           : g.InNeighbors(v);
}

}  // namespace

template <typename Steps>
void BasicWalkStore<Steps>::Init(const DiGraph& g,
                                 std::size_t walks_per_node, double epsilon,
                                 uint64_t seed, uint32_t shard_index,
                                 uint32_t shard_count) {
  Configure(walks_per_node, epsilon, shard_index, shard_count);
  rng_ = Rng(seed);

  const std::size_t n = g.num_nodes();
  const std::size_t spn = segments_per_node();
  const std::size_t num_segs = n * spn;
  FASTPPR_CHECK(num_segs < slab::kHiLimit);

  // Phase 1: simulate every owned segment into flat scratch (unowned
  // sources keep zero-length rows). Laying the rows out afterwards sizes
  // each one once, before it is filled: no row moves while it fills.
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(
      static_cast<double>(num_segs * kSides) / epsilon * 1.1 /
          static_cast<double>(shard_count)) + 16);
  std::vector<uint32_t> lengths(num_segs, 0);
  std::vector<uint8_t> ends(num_segs, kEndReset);
  owned_sources_ = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!OwnsSource(u)) continue;
    ++owned_sources_;
    for (std::size_t k = 0; k < spn; ++k) {
      const uint64_t seg = SegId(u, k);
      uint32_t side = Fold(static_cast<uint32_t>(k / walks_per_node));
      NodeId cur = u;
      nodes.push_back(cur);
      uint32_t len = 1;
      while (true) {
        // Resets are drawn only before side-0 steps.
        if (side == 0 && rng_.Bernoulli(epsilon_)) {
          ends[seg] = kEndReset;
          break;
        }
        if (SideDegree<Steps>(g, side, cur) == 0) {
          ends[seg] = DanglingEnd(side);
          break;
        }
        cur = SideNeighbor<Steps>(g, side, cur, &rng_);
        side = NextSide<Steps>(side);
        nodes.push_back(cur);
        ++len;
      }
      lengths[seg] = len;
    }
  }
  BuildFromFlatPaths(n, nodes, lengths, ends);
}

template <typename Steps>
void BasicWalkStore<Steps>::Configure(std::size_t walks_per_node,
                                      double epsilon, uint32_t shard_index,
                                      uint32_t shard_count) {
  FASTPPR_CHECK(walks_per_node >= 1);
  FASTPPR_CHECK(epsilon > 0.0 && epsilon < 1.0);
  FASTPPR_CHECK(shard_count >= 1 && shard_index < shard_count);
  walks_per_node_ = walks_per_node;
  epsilon_ = epsilon;
  shard_index_ = shard_index;
  shard_count_ = shard_count;
}

template <typename Steps>
bool BasicWalkStore<Steps>::BuildFromFlatPaths(
    std::size_t n, const std::vector<NodeId>& nodes,
    const std::vector<uint32_t>& lengths, const std::vector<uint8_t>& ends,
    const IndexRows* rows) {
  const std::size_t num_segs = lengths.size();
  seg_end_ = ends;
  for (uint32_t s = 0; s < kSides; ++s) {
    visits_[s].assign(n, 0);
    total_visits_[s] = 0;
  }

  // Exact per-node index row sizes, so every row is sized once: counted
  // from the paths, or the saved rows' sizes.
  if (rows == nullptr) {
    std::array<std::vector<uint32_t>, kIndexRowSets> sizes;
    for (std::vector<uint32_t>& row_sizes : sizes) row_sizes.assign(n, 0);
    std::size_t at = 0;
    for (std::size_t seg = 0; seg < num_segs; ++seg) {
      const uint32_t len = lengths[seg];
      uint32_t side = StartSide(seg);
      for (uint32_t p = 0; p + 1 < len; ++p) {
        ++sizes[side][nodes[at + p]];
        side = NextSide<Steps>(side);
      }
      if (ends[seg] != kEndReset) {
        ++sizes[kSides + Fold(ends[seg] - 1u)][nodes[at + len - 1]];
      }
      at += len;
    }
    for (uint32_t i = 0; i < kIndexRowSets; ++i) {
      IndexRowSet(i).Reset(&pool_, sizes[i]);
    }
  } else {
    for (uint32_t i = 0; i < kIndexRowSets; ++i) {
      IndexRowSet(i).Reset(&pool_, rows->sizes[i]);
    }
  }
  paths_.Reset(&pool_, lengths);

  std::size_t at = 0;
  uint64_t step_positions = 0, dangling_tails = 0;
  for (std::size_t seg = 0; seg < num_segs; ++seg) {
    const uint32_t len = lengths[seg];
    FASTPPR_CHECK(len < kNoSlot);  // positions must fit the 24-bit field
    const uint32_t start = StartSide(seg);
    uint32_t side = start;
    for (uint32_t p = 0; p < len; ++p) {
      const NodeId v = nodes[at + p];
      paths_.PushBack(seg, slab::Pack(v, kNoSlot));
      ++visits_[side][v];
      ++total_visits_[side];
      side = NextSide<Steps>(side);
    }
    if (rows == nullptr) {
      side = start;
      for (uint32_t p = 0; p + 1 < len; ++p) {
        RegisterStep(seg, p, side);
        side = NextSide<Steps>(side);
      }
      if (ends[seg] != kEndReset) {
        RegisterDangling(seg, len - 1, ends[seg] - 1u);
      }
    } else if (len > 0) {
      step_positions += len - 1;
      dangling_tails += ends[seg] != kEndReset ? 1 : 0;
    }
    at += len;
  }
  scratch_.ResetSegments(num_segs);
  if (rows == nullptr) return true;

  // The saved rows, in saved order. An entry must name an unregistered
  // position of its own side and node: a step entry a non-terminal one,
  // a dangling entry a tail that ended there. With no duplicate, the
  // counts then say every such position is registered exactly once.
  uint64_t entries[2] = {0, 0};
  for (uint32_t i = 0; i < kIndexRowSets; ++i) {
    const bool dangling = i >= kSides;
    const uint32_t side = dangling ? i - kSides : i;
    slab::BlockRows& index = IndexRowSet(i);
    std::size_t next = 0;
    for (NodeId v = 0; v < n; ++v) {
      for (uint32_t j = 0; j < rows->sizes[i][v]; ++j) {
        const uint64_t word = rows->words[i][next++];
        const uint64_t seg = slab::Hi(word);
        const uint32_t pos = slab::Lo(word);
        if (seg >= num_segs || pos >= lengths[seg]) return false;
        const bool terminal = pos + 1 == lengths[seg];
        const bool kind_ok =
            dangling ? terminal && End(seg) == DanglingEnd(side)
                     : !terminal && SideOf(seg, pos) == side;
        if (!kind_ok || PathNode(seg, pos) != v ||
            PathSlot(seg, pos) != kNoSlot) {
          return false;
        }
        const uint32_t slot = index.PushBack(v, word);
        if (slot >= kNoSlot) return false;
        SetPathSlot(seg, pos, slot);
      }
    }
    entries[dangling ? 1 : 0] += next;
  }
  return entries[0] == step_positions && entries[1] == dangling_tails;
}

template <typename Steps>
double BasicWalkStore<Steps>::NormalizedEstimate(NodeId v,
                                                 uint32_t side) const {
  if (total_visits_[side] == 0) return 0.0;
  return static_cast<double>(visits_[side][v]) /
         static_cast<double>(total_visits_[side]);
}

template <typename Steps>
std::vector<double> BasicWalkStore<Steps>::NormalizedEstimates(
    uint32_t side) const {
  std::vector<double> out(num_nodes());
  for (NodeId v = 0; v < out.size(); ++v) {
    out[v] = NormalizedEstimate(v, side);
  }
  return out;
}

template <typename Steps>
void BasicWalkStore<Steps>::RegisterStep(uint64_t seg, uint32_t pos,
                                         uint32_t side) {
  const NodeId node = PathNode(seg, pos);
  const uint32_t slot =
      steps_[Fold(side)].PushBack(node, slab::Pack(seg, pos));
  FASTPPR_CHECK(slot < kNoSlot);
  SetPathSlot(seg, pos, slot);
}

template <typename Steps>
void BasicWalkStore<Steps>::UnregisterStep(uint64_t seg, uint32_t pos,
                                           uint32_t side) {
  const NodeId node = PathNode(seg, pos);
  RemoveIndexAt(&steps_[Fold(side)], node, PathSlot(seg, pos), seg, pos);
  SetPathSlot(seg, pos, kNoSlot);
}

template <typename Steps>
void BasicWalkStore<Steps>::RegisterDangling(uint64_t seg, uint32_t pos,
                                             uint32_t side) {
  const NodeId node = PathNode(seg, pos);
  const uint32_t slot =
      dangling_[Fold(side)].PushBack(node, slab::Pack(seg, pos));
  FASTPPR_CHECK(slot < kNoSlot);
  SetPathSlot(seg, pos, slot);
}

template <typename Steps>
void BasicWalkStore<Steps>::UnregisterDangling(uint64_t seg, uint32_t pos) {
  const NodeId node = PathNode(seg, pos);
  RemoveIndexAt(&dangling_[Fold(End(seg) - 1u)], node, PathSlot(seg, pos),
                seg, pos);
  SetPathSlot(seg, pos, kNoSlot);
}

template <typename Steps>
void BasicWalkStore<Steps>::TruncateAfter(uint64_t seg, uint32_t keep_pos) {
  const uint32_t len = PathLen(seg);
  FASTPPR_CHECK(keep_pos < len);
  const uint32_t last = len - 1;
  // Walking backwards: with at most two sides the previous side is the
  // next one.
  static_assert(kSides <= 2);
  uint32_t side = SideOf(seg, last);
  std::array<int64_t, kSides> removed{};
  // Entries are re-read each iteration (not snapshotted): a swap-remove
  // fixup may retarget the slot field of a doomed entry we have not
  // reached yet. Slot fields of doomed entries are never cleared — the
  // row shrinks past them in one O(1) Truncate at the end.
  for (uint32_t q = last; q > keep_pos; --q) {
    const uint64_t word = paths_.Get(seg, q);
    const NodeId node = static_cast<NodeId>(slab::Hi(word));
    const uint32_t slot = slab::Lo(word);
    if (q == last) {
      // Terminal entry: in its side's dangling list or nowhere.
      if (End(seg) != kEndReset) {
        RemoveIndexAt(&dangling_[side], node, slot, seg, q);
      }
    } else {
      RemoveIndexAt(&steps_[side], node, slot, seg, q);
    }
    --visits_[side][node];
    ++removed[side];
    side = NextSide<Steps>(side);
  }
  for (uint32_t s = 0; s < kSides; ++s) total_visits_[s] -= removed[s];
  paths_.Truncate(seg, keep_pos + 1);
}

template <typename Steps>
void BasicWalkStore<Steps>::ResetSegmentToSource(uint64_t seg) {
  const bool was_multi = PathLen(seg) > 1;
  TruncateAfter(seg, 0);
  if (was_multi) {
    UnregisterStep(seg, 0, StartSide(seg));
  } else if (End(seg) != kEndReset) {
    UnregisterDangling(seg, 0);
  }
  // A reset-terminal singleton already has a pending (kNoSlot) tail.
}

template <typename Steps>
void BasicWalkStore<Steps>::FinishWalk(uint64_t seg, uint32_t start,
                                       uint32_t side, uint8_t end) {
  const uint32_t len = PathLen(seg);
  seg_end_[seg] = end;
  uint32_t at = Fold(side);
  for (uint32_t p = start; p + 1 < len; ++p) {
    RegisterStep(seg, p, at);
    at = NextSide<Steps>(at);
  }
  std::array<int64_t, kSides> added{};
  at = Fold(side);
  for (uint32_t p = start + 1; p < len; ++p) {
    at = NextSide<Steps>(at);
    ++visits_[at][PathNode(seg, p)];
    ++added[at];
  }
  for (uint32_t s = 0; s < kSides; ++s) total_visits_[s] += added[s];
  if (end != kEndReset) RegisterDangling(seg, len - 1, end - 1u);
  // A reset tail keeps its pending kNoSlot slot. The row is trimmed
  // here, not at its truncation, which its re-extension would undo.
  paths_.Trim(seg);
}

template <typename Steps>
uint64_t BasicWalkStore<Steps>::ExtendPendingWalks(const DiGraph& g,
                                                   Rng* rng) {
  // Walks are independent; each is simulated appending path words only
  // (the row stays hot), then registered in one sweep by FinishWalk.
  // The per-walk RNG stream is identical to registering inline.
  uint64_t steps = 0;
  for (const PendingWalk& start_state : walk_queue_) {
    PendingWalk w = start_state;
    uint32_t side = Fold(w.side);
    while (true) {
      NodeId next;
      if (w.forced != kInvalidNode) {
        next = w.forced;
        w.forced = kInvalidNode;
      } else if (side == 0 && rng->Bernoulli(epsilon_)) {
        FinishWalk(w.seg, w.start, w.side, kEndReset);
        break;
      } else if (SideDegree<Steps>(g, side, w.cur) == 0) {
        FinishWalk(w.seg, w.start, w.side, DanglingEnd(side));
        break;
      } else {
        next = SideNeighbor<Steps>(g, side, w.cur, rng);
      }
      FASTPPR_CHECK(PathLen(w.seg) < kNoSlot);
      paths_.PushBack(w.seg, slab::Pack(next, kNoSlot));
      w.cur = next;
      side = NextSide<Steps>(side);
      ++steps;
    }
  }
  return steps;
}

template <typename Steps>
WalkUpdateStats BasicWalkStore<Steps>::OnEdgeInserted(const DiGraph& g,
                                                      NodeId u, NodeId v,
                                                      Rng* rng) {
  const EdgeEvent ev{EdgeEvent::Kind::kInsert, Edge{u, v}};
  single_.Build(std::span<const EdgeEvent>(&ev, 1), kRepairsInEdges);
  return RepairWindow(g, single_, rng);
}

template <typename Steps>
WalkUpdateStats BasicWalkStore<Steps>::OnEdgeRemoved(const DiGraph& g,
                                                     NodeId u, NodeId v,
                                                     Rng* rng) {
  const EdgeEvent ev{EdgeEvent::Kind::kDelete, Edge{u, v}};
  single_.Build(std::span<const EdgeEvent>(&ev, 1), kRepairsInEdges);
  return RepairWindow(g, single_, rng);
}

template <typename Steps>
void BasicWalkStore<Steps>::CollectPivot(const DiGraph& g, uint32_t side,
                                         const WindowDelta::Side& pivots,
                                         const WindowDelta::Pivot& p,
                                         Rng* rng, WalkUpdateStats* stats) {
  const NodeId u = p.node;
  const slab::BlockRows& steps = steps_[Fold(side)];
  const uint8_t tag = static_cast<uint8_t>(side);
  const std::span<const WindowDelta::Removed> removed = pivots.RemovedOf(p);
  if (!removed.empty()) {
    // Breaks. A stored step to x chose uniformly among the c_before(x) =
    // c_after(x) + r_x parallel copies, so it used a removed copy with
    // probability r_x / (c_after(x) + r_x). The scan is O(W(u)) cheap
    // index reads (entries_scanned); only re-simulation counts as walk
    // work, matching the paper's accounting.
    remaining_.assign(removed.size(), 0);
    for (const NodeId w : SideNeighbors<Steps>(g, side, u)) {
      const std::size_t i = WindowDelta::Side::IndexOf(removed, w);
      if (i < removed.size()) ++remaining_[i];
    }
    const auto row = steps.RowSpan(u);
    stats->entries_scanned += row.size();
    for (const uint64_t word : row) {
      const uint64_t seg = slab::Hi(word);
      const uint32_t pos = slab::Lo(word);
      FASTPPR_CHECK(pos + 1 < PathLen(seg));
      const std::size_t i =
          WindowDelta::Side::IndexOf(removed, PathNode(seg, pos + 1));
      if (i == removed.size()) continue;
      const double p_broken =
          static_cast<double>(removed[i].copies) /
          static_cast<double>(remaining_[i] + removed[i].copies);
      if (!rng->Bernoulli(p_broken)) continue;  // used a surviving copy
      scratch_.Offer(
          PendingRepair{seg, pos, 0, 0, slab::RepairKind::kBreak, tag});
    }
  }

  const uint32_t k = p.num_added();
  if (k == 0) return;
  const std::size_t d_after = SideDegree<Steps>(g, side, u);
  FASTPPR_CHECK_MSG(d_after >= k, "graph must already contain the window");
  if (d_after + p.removed_slots == k) {
    // u had no slot on this side before the window: every segment
    // dangling here resumes through a (uniformly chosen) new slot. The
    // terminal visit already survived its reset draw, so the step is
    // unconditional — this stays exact even under kRedoFromSource, since
    // re-rolling the draw would make reset-terminated segments an
    // absorbing state.
    for (const uint64_t word : dangling_[Fold(side)].RowSpan(u)) {
      scratch_.Offer(PendingRepair{slab::Hi(word), slab::Lo(word),
                                   p.added_begin, k,
                                   slab::RepairKind::kResume, tag});
    }
    return;
  }
  // Switches: each step visit at u on this side independently moves to
  // a uniformly chosen new slot with probability k / d_after.
  const std::size_t w = steps.Size(u);
  if (w == 0) return;
  const uint64_t marks =
      rng->Binomial(w, static_cast<double>(k) / static_cast<double>(d_after));
  if (marks == 0) return;
  // Choose `marks` distinct visit indices uniformly (Floyd's algorithm);
  // the earliest marked position per segment wins inside Offer().
  scratch_.SampleDistinct(w, marks, rng);
  stats->entries_scanned += scratch_.picked().size();
  for (const std::size_t idx : scratch_.picked()) {
    const uint64_t word = steps.Get(u, static_cast<uint32_t>(idx));
    scratch_.Offer(PendingRepair{slab::Hi(word), slab::Lo(word),
                                 p.added_begin, k,
                                 slab::RepairKind::kSwitch, tag});
  }
}

template <typename Steps>
WalkUpdateStats BasicWalkStore<Steps>::RepairWindow(const DiGraph& g,
                                                    const WindowDelta& delta,
                                                    Rng* rng) {
  WalkUpdateStats stats;
  if constexpr (kRepairsInEdges) {
    FASTPPR_CHECK_MSG(delta.has_in_side(),
                      "this store's repairs need the window's in side");
  }
  // The plan is reset before the empty-delta early-out, so an empty
  // window leaves an empty plan (ForEachRepairedSegment).
  scratch_.BeginEpoch();
  if (delta.out().pivots.empty()) return stats;

  // Collect every decision (at both ends of every changed edge when the
  // walk has two sides) before re-simulating anything: a fresh suffix is
  // already distributed for the post-window graph and must not be
  // switched again by a later pivot.
  for (uint32_t side = 0; side < kSides; ++side) {
    const WindowDelta::Side& pivots = DeltaSide(delta, side);
    for (const WindowDelta::Pivot& p : pivots.pivots) {
      CollectPivot(g, side, pivots, p, rng, &stats);
    }
  }
  if (scratch_.empty()) return stats;
  stats.store_called = 1;

  // Apply phase: one repair per touched segment. Every pivot draw is
  // made here, in plan order; the suffixes are then re-simulated on the
  // post-window graph in the same order.
  scratch_.OrderForApply();
  walk_queue_.clear();
  for (const PendingRepair& plan : scratch_.pending()) {
    const uint64_t seg = plan.seg;
    const uint32_t side = Fold(plan.side);
    ++stats.segments_updated;
    // A switched or resumed hop lands uniformly on the pivot's new
    // slots: destinations on side 0, sources on side 1. No draw for a
    // single new slot, so a one-event window matches the sequential RNG
    // stream bit for bit.
    auto draw_added = [&]() -> NodeId {
      const uint32_t i =
          plan.added_count == 1
              ? 0
              : static_cast<uint32_t>(rng->UniformIndex(plan.added_count));
      return DeltaSide(delta, side).added[plan.added_begin + i];
    };
    if (plan.kind == slab::RepairKind::kResume) {
      UnregisterDangling(seg, plan.pos);
      walk_queue_.push_back(PendingWalk{seg, PathNode(seg, plan.pos),
                                        draw_added(), plan.pos, side});
    } else if (policy_ == UpdatePolicy::kRedoFromSource) {
      ResetSegmentToSource(seg);
      walk_queue_.push_back(PendingWalk{seg, PathNode(seg, 0), kInvalidNode,
                                        0, StartSide(seg)});
    } else {
      const NodeId pivot = PathNode(seg, plan.pos);
      TruncateAfter(seg, plan.pos);
      UnregisterStep(seg, plan.pos, side);  // tail becomes pending
      if (plan.kind == slab::RepairKind::kSwitch) {
        walk_queue_.push_back(
            PendingWalk{seg, pivot, draw_added(), plan.pos, side});
      } else if (SideDegree<Steps>(g, side, pivot) == 0) {
        // The visit survived its reset draw but the pivot now has no
        // edge on this side.
        seg_end_[seg] = DanglingEnd(side);
        RegisterDangling(seg, plan.pos, side);
      } else {
        // Re-draw the broken step over every post-window slot, then
        // continue with fresh randomness (no reset draw: the original one
        // survived).
        walk_queue_.push_back(PendingWalk{
            seg, pivot, SideNeighbor<Steps>(g, side, pivot, rng), plan.pos,
            side});
      }
    }
  }
  stats.walk_steps += ExtendPendingWalks(g, rng);
  return stats;
}

template <typename Steps>
void BasicWalkStore<Steps>::CheckConsistency(const DiGraph& g) const {
  std::array<std::vector<int64_t>, kSides> recount;
  for (std::vector<int64_t>& r : recount) r.assign(num_nodes(), 0);
  for (uint64_t seg = 0; seg < num_segments(); ++seg) {
    const uint32_t len = PathLen(seg);
    // Unowned sources (sharded mode) have empty rows, owned sources never
    // do.
    const NodeId source = static_cast<NodeId>(seg / segments_per_node());
    if (len == 0) {
      FASTPPR_CHECK(!OwnsSource(source));
      continue;
    }
    FASTPPR_CHECK(OwnsSource(source));
    FASTPPR_CHECK(PathNode(seg, 0) == source);
    uint32_t side = StartSide(seg);
    for (uint32_t p = 0; p < len; ++p) {
      const NodeId node = PathNode(seg, p);
      const uint32_t slot = PathSlot(seg, p);
      ++recount[side][node];
      const bool terminal = (p + 1 == len);
      if (!terminal) {
        // Hop must be a real edge on this side and the entry indexed.
        const NodeId next = PathNode(seg, p + 1);
        FASTPPR_CHECK_MSG(side == 0 ? g.HasEdge(node, next)
                                    : g.HasEdge(next, node),
                          "stored hop is not an edge");
        FASTPPR_CHECK(slot < steps_[side].Size(node));
        FASTPPR_CHECK(steps_[side].Get(node, slot) == slab::Pack(seg, p));
      } else if (End(seg) == kEndReset) {
        FASTPPR_CHECK(slot == kNoSlot);
        FASTPPR_CHECK(side == 0);
      } else {
        FASTPPR_CHECK(End(seg) == DanglingEnd(side));
        FASTPPR_CHECK_MSG(SideDegree<Steps>(g, side, node) == 0,
                          "dangling tail at a node with edges on its side");
        FASTPPR_CHECK(slot < dangling_[side].Size(node));
        FASTPPR_CHECK(dangling_[side].Get(node, slot) == slab::Pack(seg, p));
      }
      side = NextSide<Steps>(side);
    }
  }
  for (uint32_t s = 0; s < kSides; ++s) {
    int64_t total = 0;
    for (NodeId vtx = 0; vtx < num_nodes(); ++vtx) {
      FASTPPR_CHECK(recount[s][vtx] == visits_[s][vtx]);
      total += recount[s][vtx];
    }
    FASTPPR_CHECK(total == total_visits_[s]);
    // Every index entry must point back at a matching path position.
    for (NodeId vtx = 0; vtx < num_nodes(); ++vtx) {
      for (uint32_t slot = 0; slot < steps_[s].Size(vtx); ++slot) {
        const uint64_t word = steps_[s].Get(vtx, slot);
        const uint64_t seg = slab::Hi(word);
        const uint32_t pos = slab::Lo(word);
        FASTPPR_CHECK(pos < PathLen(seg));
        FASTPPR_CHECK(SideOf(seg, pos) == s);
        FASTPPR_CHECK(PathNode(seg, pos) == vtx);
        FASTPPR_CHECK(PathSlot(seg, pos) == slot);
      }
      for (uint32_t slot = 0; slot < dangling_[s].Size(vtx); ++slot) {
        const uint64_t word = dangling_[s].Get(vtx, slot);
        const uint64_t seg = slab::Hi(word);
        const uint32_t pos = slab::Lo(word);
        FASTPPR_CHECK(pos + 1 == PathLen(seg));
        FASTPPR_CHECK(PathNode(seg, pos) == vtx);
        FASTPPR_CHECK(PathSlot(seg, pos) == slot);
        FASTPPR_CHECK(End(seg) == DanglingEnd(s));
      }
    }
  }
}

template class BasicWalkStore<PageRankSteps>;
template class BasicWalkStore<SalsaSteps>;

}  // namespace fastppr
