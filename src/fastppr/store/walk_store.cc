#include "fastppr/store/walk_store.h"

#include <algorithm>

#include "fastppr/util/check.h"

namespace fastppr {

void WalkStore::Init(const DiGraph& g, std::size_t walks_per_node,
                     double epsilon, uint64_t seed, uint32_t shard_index,
                     uint32_t shard_count) {
  FASTPPR_CHECK(walks_per_node >= 1);
  FASTPPR_CHECK(epsilon > 0.0 && epsilon < 1.0);
  FASTPPR_CHECK(shard_count >= 1 && shard_index < shard_count);
  walks_per_node_ = walks_per_node;
  epsilon_ = epsilon;
  rng_ = Rng(seed);
  shard_index_ = shard_index;
  shard_count_ = shard_count;

  const std::size_t n = g.num_nodes();
  const std::size_t num_segs = n * walks_per_node;
  FASTPPR_CHECK(num_segs < slab::kHiLimit);

  // Phase 1: simulate every owned segment into flat scratch (unowned
  // sources keep zero-length rows). Laying the arena out afterwards with
  // exact-fit capacities packs the rows back-to-back with no relocation
  // and no dead space.
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(
      static_cast<double>(num_segs) / epsilon * 1.1 /
          static_cast<double>(shard_count)) + 16);
  std::vector<uint32_t> lengths(num_segs, 0);
  std::vector<uint8_t> ends(num_segs,
                            static_cast<uint8_t>(EndReason::kReset));
  owned_sources_ = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!OwnsSource(u)) continue;
    ++owned_sources_;
    for (std::size_t k = 0; k < walks_per_node; ++k) {
      const uint64_t seg = SegId(u, k);
      NodeId cur = u;
      nodes.push_back(cur);
      uint32_t len = 1;
      while (true) {
        if (rng_.Bernoulli(epsilon_)) {
          ends[seg] = static_cast<uint8_t>(EndReason::kReset);
          break;
        }
        if (g.OutDegree(cur) == 0) {
          ends[seg] = static_cast<uint8_t>(EndReason::kDangling);
          break;
        }
        cur = g.RandomOutNeighbor(cur, &rng_);
        nodes.push_back(cur);
        ++len;
      }
      lengths[seg] = len;
    }
  }
  BuildFromFlatPaths(n, nodes, lengths, ends);
}

Status WalkStore::InitFromSegments(
    const DiGraph& g, std::size_t walks_per_node, double epsilon,
    uint64_t seed, const std::vector<std::vector<NodeId>>& paths,
    const std::vector<EndReason>& ends) {
  if (walks_per_node < 1 || epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument("bad walk-store parameters");
  }
  const std::size_t n = g.num_nodes();
  if (paths.size() != n * walks_per_node || ends.size() != paths.size()) {
    return Status::InvalidArgument("segment count must be n * R");
  }
  // Validate before mutating any state.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto& path = paths[i];
    if (path.empty()) return Status::Corruption("empty segment");
    const NodeId source = static_cast<NodeId>(i / walks_per_node);
    if (path[0] != source) {
      return Status::Corruption("segment does not start at its source");
    }
    for (std::size_t p = 0; p < path.size(); ++p) {
      if (path[p] >= n) return Status::Corruption("node id out of range");
      if (p + 1 < path.size() && !g.HasEdge(path[p], path[p + 1])) {
        return Status::Corruption("stored hop is not an edge");
      }
    }
    if (ends[i] == EndReason::kDangling &&
        g.OutDegree(path.back()) != 0) {
      return Status::Corruption("dangling tail at a node with out-edges");
    }
  }

  walks_per_node_ = walks_per_node;
  epsilon_ = epsilon;
  rng_ = Rng(seed);
  // Persistence snapshots always describe a full (unsharded) store.
  shard_index_ = 0;
  shard_count_ = 1;
  owned_sources_ = n;

  std::vector<NodeId> nodes;
  std::vector<uint32_t> lengths(paths.size(), 0);
  std::vector<uint8_t> flat_ends(paths.size(), 0);
  std::size_t total = 0;
  for (const auto& path : paths) total += path.size();
  nodes.reserve(total);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    nodes.insert(nodes.end(), paths[i].begin(), paths[i].end());
    lengths[i] = static_cast<uint32_t>(paths[i].size());
    flat_ends[i] = static_cast<uint8_t>(ends[i]);
  }
  BuildFromFlatPaths(n, nodes, lengths, flat_ends);
  return Status::OK();
}

void WalkStore::BuildFromFlatPaths(std::size_t n,
                                   const std::vector<NodeId>& nodes,
                                   const std::vector<uint32_t>& lengths,
                                   const std::vector<uint8_t>& ends) {
  const std::size_t num_segs = lengths.size();
  seg_end_ = ends;
  visit_count_.assign(n, 0);
  total_visits_ = 0;

  // Count exact per-node index rows so the pools are laid out dense.
  std::vector<uint32_t> step_count(n, 0);
  std::vector<uint32_t> dang_count(n, 0);
  {
    std::size_t at = 0;
    for (std::size_t seg = 0; seg < num_segs; ++seg) {
      const uint32_t len = lengths[seg];
      for (uint32_t p = 0; p + 1 < len; ++p) ++step_count[nodes[at + p]];
      if (static_cast<EndReason>(ends[seg]) == EndReason::kDangling) {
        ++dang_count[nodes[at + len - 1]];
      }
      at += len;
    }
  }
  steps_.ResetWithCapacities(step_count, /*headroom=*/true);
  dangling_.ResetWithCapacities(dang_count, /*headroom=*/true);
  paths_.ResetWithCapacities(lengths, /*headroom=*/true);

  std::size_t at = 0;
  for (std::size_t seg = 0; seg < num_segs; ++seg) {
    const uint32_t len = lengths[seg];
    FASTPPR_CHECK(len < kNoSlot);  // positions must fit the 24-bit field
    for (uint32_t p = 0; p < len; ++p) {
      const NodeId v = nodes[at + p];
      paths_.PushBack(seg, slab::Pack(v, kNoSlot));
      ++visit_count_[v];
      ++total_visits_;
    }
    for (uint32_t p = 0; p + 1 < len; ++p) RegisterStep(seg, p);
    if (static_cast<EndReason>(ends[seg]) == EndReason::kDangling) {
      RegisterDangling(seg, len - 1);
    }
    at += len;
  }

  scratch_.ResetSegments(num_segs);
  dirty_.ResetCap(slab::DirtyCapForOwnedRows(paths_));
}

double WalkStore::Estimate(NodeId v) const {
  double denom = static_cast<double>(num_nodes()) *
                 static_cast<double>(walks_per_node_) / epsilon_;
  return static_cast<double>(visit_count_[v]) / denom;
}

double WalkStore::NormalizedEstimate(NodeId v) const {
  if (total_visits_ == 0) return 0.0;
  return static_cast<double>(visit_count_[v]) /
         static_cast<double>(total_visits_);
}

std::vector<double> WalkStore::NormalizedEstimates() const {
  std::vector<double> out(num_nodes());
  for (NodeId v = 0; v < out.size(); ++v) out[v] = NormalizedEstimate(v);
  return out;
}

void WalkStore::RegisterStep(uint64_t seg, uint32_t pos) {
  const NodeId node = PathNode(seg, pos);
  const uint32_t slot = steps_.PushBack(node, slab::Pack(seg, pos));
  FASTPPR_CHECK(slot < kNoSlot);
  SetPathSlot(seg, pos, slot);
}

void WalkStore::UnregisterStep(uint64_t seg, uint32_t pos) {
  const NodeId node = PathNode(seg, pos);
  RemoveIndexAt(&steps_, node, PathSlot(seg, pos), seg, pos);
  SetPathSlot(seg, pos, kNoSlot);
}

void WalkStore::RegisterDangling(uint64_t seg, uint32_t pos) {
  const NodeId node = PathNode(seg, pos);
  const uint32_t slot = dangling_.PushBack(node, slab::Pack(seg, pos));
  FASTPPR_CHECK(slot < kNoSlot);
  SetPathSlot(seg, pos, slot);
}

void WalkStore::UnregisterDangling(uint64_t seg, uint32_t pos) {
  const NodeId node = PathNode(seg, pos);
  RemoveIndexAt(&dangling_, node, PathSlot(seg, pos), seg, pos);
  SetPathSlot(seg, pos, kNoSlot);
}

void WalkStore::TruncateAfter(uint64_t seg, uint32_t keep_pos) {
  const uint32_t len = PathLen(seg);
  FASTPPR_CHECK(keep_pos < len);
  const uint32_t last = len - 1;
  // Entries are re-read each iteration (not snapshotted): a swap-remove
  // fixup may retarget the slot field of a doomed entry we have not
  // reached yet. Slot fields of doomed entries are never cleared — the
  // row shrinks past them in one O(1) Truncate at the end.
  for (uint32_t q = last; q > keep_pos; --q) {
    const uint64_t word = paths_.Get(seg, q);
    const NodeId node = static_cast<NodeId>(slab::Hi(word));
    const uint32_t slot = slab::Lo(word);
    if (q == last) {
      // Terminal entry: in the dangling list or nowhere.
      if (End(seg) == EndReason::kDangling) {
        RemoveIndexAt(&dangling_, node, slot, seg, q);
      }
    } else {
      RemoveIndexAt(&steps_, node, slot, seg, q);
    }
    --visit_count_[node];
  }
  total_visits_ -= last - keep_pos;
  paths_.Truncate(seg, keep_pos + 1);
}

void WalkStore::ResetSegmentToSource(uint64_t seg) {
  const bool was_multi = PathLen(seg) > 1;
  TruncateAfter(seg, 0);
  if (was_multi) {
    UnregisterStep(seg, 0);
  } else if (End(seg) == EndReason::kDangling) {
    UnregisterDangling(seg, 0);
  }
  // A reset-terminal singleton already has a pending (kNoSlot) tail.
}

void WalkStore::FinishWalk(uint64_t seg, uint32_t start, bool dangling) {
  const uint32_t end = PathLen(seg);
  seg_end_[seg] = static_cast<uint8_t>(dangling ? EndReason::kDangling
                                                : EndReason::kReset);
  for (uint32_t p = start; p + 1 < end; ++p) RegisterStep(seg, p);
  for (uint32_t p = start + 1; p < end; ++p) {
    ++visit_count_[PathNode(seg, p)];
  }
  total_visits_ += end - 1 - start;
  if (dangling) RegisterDangling(seg, end - 1);
  // A reset tail keeps its pending kNoSlot slot.
}

uint64_t WalkStore::ExtendPendingWalks(const DiGraph& g, Rng* rng) {
  // Walks are independent; each is simulated appending path words only
  // (the row stays hot), then registered in one sweep by FinishWalk.
  // The per-walk RNG stream is identical to registering inline.
  uint64_t steps = 0;
  for (const PendingWalk& start_state : walk_queue_) {
    PendingWalk w = start_state;
    while (true) {
      NodeId next;
      if (w.forced != kInvalidNode) {
        next = w.forced;
        w.forced = kInvalidNode;
      } else if (rng->Bernoulli(epsilon_)) {
        FinishWalk(w.seg, w.start, /*dangling=*/false);
        break;
      } else if (g.OutDegree(w.cur) == 0) {
        FinishWalk(w.seg, w.start, /*dangling=*/true);
        break;
      } else {
        next = g.RandomOutNeighbor(w.cur, rng);
      }
      FASTPPR_CHECK(PathLen(w.seg) < kNoSlot);
      paths_.PushBack(w.seg, slab::Pack(next, kNoSlot));
      w.cur = next;
      ++steps;
    }
  }
  return steps;
}

WalkUpdateStats WalkStore::OnEdgeInserted(const DiGraph& g, NodeId u,
                                          NodeId v, Rng* rng) {
  const EdgeEvent ev{EdgeEvent::Kind::kInsert, Edge{u, v}};
  single_.Build(std::span<const EdgeEvent>(&ev, 1), kRepairsInEdges);
  return RepairWindow(g, single_, rng);
}

WalkUpdateStats WalkStore::OnEdgeRemoved(const DiGraph& g, NodeId u,
                                         NodeId v, Rng* rng) {
  const EdgeEvent ev{EdgeEvent::Kind::kDelete, Edge{u, v}};
  single_.Build(std::span<const EdgeEvent>(&ev, 1), kRepairsInEdges);
  return RepairWindow(g, single_, rng);
}

void WalkStore::CollectPivot(const DiGraph& g, const WindowDelta::Side& side,
                             const WindowDelta::Pivot& p, Rng* rng,
                             WalkUpdateStats* stats) {
  const NodeId u = p.node;
  const std::span<const WindowDelta::Removed> removed = side.RemovedOf(p);
  if (!removed.empty()) {
    // Breaks. A stored step to x chose uniformly among the c_before(x) =
    // c_after(x) + r_x parallel copies, so it used a removed copy with
    // probability r_x / (c_after(x) + r_x). The scan is O(W(u)) cheap
    // index reads (entries_scanned); only re-simulation counts as walk
    // work, matching the paper's accounting.
    remaining_.assign(removed.size(), 0);
    for (const NodeId w : g.OutNeighbors(u)) {
      const std::size_t i = WindowDelta::Side::IndexOf(removed, w);
      if (i < removed.size()) ++remaining_[i];
    }
    const auto row = steps_.RowSpan(u);
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
          PendingRepair{seg, pos, 0, 0, slab::RepairKind::kBreak});
    }
  }

  const uint32_t k = p.num_added();
  if (k == 0) return;
  const std::size_t d_after = g.OutDegree(u);
  FASTPPR_CHECK_MSG(d_after >= k, "graph must already contain the window");
  if (d_after + p.removed_slots == k) {
    // u had no out-edge before the window: every segment dangling at u
    // resumes through a (uniformly chosen) new slot. The terminal visit
    // already survived its reset draw, so the step is unconditional —
    // this stays exact even under kRedoFromSource, since re-rolling the
    // draw would make reset-terminated segments an absorbing state.
    for (const uint64_t word : dangling_.RowSpan(u)) {
      scratch_.Offer(PendingRepair{slab::Hi(word), slab::Lo(word),
                                   p.added_begin, k,
                                   slab::RepairKind::kResume});
    }
    return;
  }
  // Switches: each step visit at u independently moves to a uniformly
  // chosen new slot with probability k / d_after.
  const std::size_t w = steps_.Size(u);
  if (w == 0) return;
  const uint64_t marks =
      rng->Binomial(w, static_cast<double>(k) / static_cast<double>(d_after));
  if (marks == 0) return;
  // Choose `marks` distinct visit indices uniformly (Floyd's algorithm);
  // the earliest marked position per segment wins inside Offer().
  scratch_.SampleDistinct(w, marks, rng);
  stats->entries_scanned += scratch_.picked().size();
  for (const std::size_t idx : scratch_.picked()) {
    const uint64_t word = steps_.Get(u, static_cast<uint32_t>(idx));
    scratch_.Offer(PendingRepair{slab::Hi(word), slab::Lo(word),
                                 p.added_begin, k,
                                 slab::RepairKind::kSwitch});
  }
}

WalkUpdateStats WalkStore::RepairWindow(const DiGraph& g,
                                        const WindowDelta& delta, Rng* rng) {
  WalkUpdateStats stats;
  const WindowDelta::Side& side = delta.out();
  if (side.pivots.empty()) return stats;

  // Collect every decision before re-simulating anything: a fresh suffix
  // is already distributed for the post-window graph and must not be
  // switched again by a later pivot.
  scratch_.BeginEpoch();
  for (const WindowDelta::Pivot& p : side.pivots) {
    CollectPivot(g, side, p, rng, &stats);
  }
  if (scratch_.empty()) return stats;
  stats.store_called = 1;

  // Apply phase: one repair per touched segment, re-simulated on the
  // post-window graph.
  scratch_.OrderForApply();
  walk_queue_.clear();
  for (const PendingRepair& plan : scratch_.pending()) {
    const uint64_t seg = plan.seg;
    RecordDirtySegment(seg);
    ++stats.segments_updated;
    // A switched or resumed hop lands uniformly on the pivot's new
    // slots. No draw for a single new slot, so a one-event window
    // matches the sequential RNG stream bit for bit.
    auto draw_added = [&]() -> NodeId {
      const uint32_t i =
          plan.added_count == 1
              ? 0
              : static_cast<uint32_t>(rng->UniformIndex(plan.added_count));
      return side.added[plan.added_begin + i];
    };
    if (plan.kind == slab::RepairKind::kResume) {
      UnregisterDangling(seg, plan.pos);
      walk_queue_.push_back(PendingWalk{seg, PathNode(seg, plan.pos),
                                       draw_added(), plan.pos});
      continue;
    }
    if (policy_ == UpdatePolicy::kRedoFromSource) {
      ResetSegmentToSource(seg);
      walk_queue_.push_back(
          PendingWalk{seg, PathNode(seg, 0), kInvalidNode, 0});
      continue;
    }
    const NodeId pivot = PathNode(seg, plan.pos);
    TruncateAfter(seg, plan.pos);
    UnregisterStep(seg, plan.pos);  // tail becomes pending
    if (plan.kind == slab::RepairKind::kSwitch) {
      walk_queue_.push_back(PendingWalk{seg, pivot, draw_added(), plan.pos});
    } else if (g.OutDegree(pivot) == 0) {
      // The visit survived its reset draw but the pivot is now dangling.
      seg_end_[seg] = static_cast<uint8_t>(EndReason::kDangling);
      RegisterDangling(seg, plan.pos);
    } else {
      // Re-draw the broken step over every post-window slot, then
      // continue with fresh randomness (no reset draw: the original one
      // survived).
      walk_queue_.push_back(PendingWalk{
          seg, pivot, g.RandomOutNeighbor(pivot, rng), plan.pos});
    }
  }
  stats.walk_steps += ExtendPendingWalks(g, rng);
  return stats;
}

void WalkStore::CheckConsistency(const DiGraph& g) const {
  std::vector<int64_t> recount(num_nodes(), 0);
  int64_t total = 0;
  for (uint64_t seg = 0; seg < num_segments(); ++seg) {
    const uint32_t len = PathLen(seg);
    // Source of segment seg is seg / R; unowned sources (sharded mode)
    // have empty rows, owned sources never do.
    const NodeId source = static_cast<NodeId>(seg / walks_per_node_);
    if (len == 0) {
      FASTPPR_CHECK(!OwnsSource(source));
      continue;
    }
    FASTPPR_CHECK(OwnsSource(source));
    FASTPPR_CHECK(PathNode(seg, 0) == source);
    for (uint32_t p = 0; p < len; ++p) {
      const NodeId node = PathNode(seg, p);
      const uint32_t slot = PathSlot(seg, p);
      ++recount[node];
      ++total;
      const bool terminal = (p + 1 == len);
      if (!terminal) {
        // Hop must be a real edge and the entry must be indexed.
        FASTPPR_CHECK_MSG(g.HasEdge(node, PathNode(seg, p + 1)),
                          "stored hop is not an edge");
        FASTPPR_CHECK(slot < steps_.Size(node));
        FASTPPR_CHECK(steps_.Get(node, slot) == slab::Pack(seg, p));
      } else if (End(seg) == EndReason::kDangling) {
        FASTPPR_CHECK_MSG(g.OutDegree(node) == 0,
                          "dangling tail at a node with out-edges");
        FASTPPR_CHECK(slot < dangling_.Size(node));
        FASTPPR_CHECK(dangling_.Get(node, slot) == slab::Pack(seg, p));
      } else {
        FASTPPR_CHECK(slot == kNoSlot);
      }
    }
  }
  for (NodeId vtx = 0; vtx < num_nodes(); ++vtx) {
    FASTPPR_CHECK(recount[vtx] == visit_count_[vtx]);
  }
  FASTPPR_CHECK(total == total_visits_);
  // Every index entry must point back at a matching path position.
  for (NodeId vtx = 0; vtx < num_nodes(); ++vtx) {
    for (uint32_t slot = 0; slot < steps_.Size(vtx); ++slot) {
      const uint64_t word = steps_.Get(vtx, slot);
      const uint64_t seg = slab::Hi(word);
      const uint32_t pos = slab::Lo(word);
      FASTPPR_CHECK(pos < PathLen(seg));
      FASTPPR_CHECK(PathNode(seg, pos) == vtx);
      FASTPPR_CHECK(PathSlot(seg, pos) == slot);
    }
    for (uint32_t slot = 0; slot < dangling_.Size(vtx); ++slot) {
      const uint64_t word = dangling_.Get(vtx, slot);
      const uint64_t seg = slab::Hi(word);
      const uint32_t pos = slab::Lo(word);
      FASTPPR_CHECK(pos + 1 == PathLen(seg));
      FASTPPR_CHECK(PathNode(seg, pos) == vtx);
      FASTPPR_CHECK(PathSlot(seg, pos) == slot);
      FASTPPR_CHECK(End(seg) == EndReason::kDangling);
    }
  }
}

}  // namespace fastppr
