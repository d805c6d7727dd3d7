#include "fastppr/store/salsa_walk_store.h"

#include <algorithm>

#include "fastppr/util/check.h"

namespace fastppr {

void SalsaWalkStore::Init(const DiGraph& g, std::size_t walks_per_node,
                          double epsilon, uint64_t seed,
                          uint32_t shard_index, uint32_t shard_count) {
  FASTPPR_CHECK(walks_per_node >= 1);
  FASTPPR_CHECK(epsilon > 0.0 && epsilon < 1.0);
  FASTPPR_CHECK(shard_count >= 1 && shard_index < shard_count);
  walks_per_node_ = walks_per_node;
  epsilon_ = epsilon;
  rng_ = Rng(seed);
  shard_index_ = shard_index;
  shard_count_ = shard_count;

  const std::size_t n = g.num_nodes();
  const std::size_t num_segs = n * 2 * walks_per_node;
  FASTPPR_CHECK(num_segs < slab::kHiLimit);
  seg_fwd_.assign(num_segs, 0);
  for (std::size_t seg = 0; seg < num_segs; ++seg) {
    seg_fwd_[seg] =
        (seg % (2 * walks_per_node)) < walks_per_node ? 1 : 0;
  }

  // Phase 1: simulate every owned segment into flat scratch (unowned
  // sources keep zero-length rows; exact-fit layout afterwards — see
  // WalkStore::Init).
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(
      static_cast<double>(num_segs) * 2.0 / epsilon * 1.1 /
          static_cast<double>(shard_count)) + 16);
  std::vector<uint32_t> lengths(num_segs, 0);
  std::vector<uint8_t> ends(num_segs,
                            static_cast<uint8_t>(EndReason::kReset));
  owned_sources_ = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!OwnsSource(u)) continue;
    ++owned_sources_;
    for (std::size_t k = 0; k < 2 * walks_per_node; ++k) {
      const uint64_t seg = SegId(u, k);
      NodeId cur = u;
      nodes.push_back(cur);
      uint32_t len = 1;
      while (true) {
        const Direction dir = StepDirection(seg, len - 1);
        if (dir == Direction::kForward) {
          // Resets are drawn only before forward steps.
          if (rng_.Bernoulli(epsilon_)) {
            ends[seg] = static_cast<uint8_t>(EndReason::kReset);
            break;
          }
          if (g.OutDegree(cur) == 0) {
            ends[seg] = static_cast<uint8_t>(EndReason::kDanglingFwd);
            break;
          }
          cur = g.RandomOutNeighbor(cur, &rng_);
        } else {
          if (g.InDegree(cur) == 0) {
            ends[seg] = static_cast<uint8_t>(EndReason::kDanglingBwd);
            break;
          }
          cur = g.RandomInNeighbor(cur, &rng_);
        }
        nodes.push_back(cur);
        ++len;
      }
      lengths[seg] = len;
    }
  }

  // Phase 2: exact-fit pools.
  seg_end_ = ends;
  hub_visits_.assign(n, 0);
  auth_visits_.assign(n, 0);
  total_hub_ = 0;
  total_auth_ = 0;

  std::vector<uint32_t> fwd_count(n, 0);
  std::vector<uint32_t> bwd_count(n, 0);
  std::vector<uint32_t> dang_fwd_count(n, 0);
  std::vector<uint32_t> dang_bwd_count(n, 0);
  {
    std::size_t at = 0;
    for (std::size_t seg = 0; seg < num_segs; ++seg) {
      const uint32_t len = lengths[seg];
      for (uint32_t p = 0; p + 1 < len; ++p) {
        if (StepDirection(seg, p) == Direction::kForward) {
          ++fwd_count[nodes[at + p]];
        } else {
          ++bwd_count[nodes[at + p]];
        }
      }
      const EndReason end = static_cast<EndReason>(ends[seg]);
      if (end == EndReason::kDanglingFwd) {
        ++dang_fwd_count[nodes[at + len - 1]];
      } else if (end == EndReason::kDanglingBwd) {
        ++dang_bwd_count[nodes[at + len - 1]];
      }
      at += len;
    }
  }
  step_fwd_.ResetWithCapacities(fwd_count, /*headroom=*/true);
  step_bwd_.ResetWithCapacities(bwd_count, /*headroom=*/true);
  dangling_fwd_.ResetWithCapacities(dang_fwd_count, /*headroom=*/true);
  dangling_bwd_.ResetWithCapacities(dang_bwd_count, /*headroom=*/true);
  paths_.ResetWithCapacities(lengths, /*headroom=*/true);

  // Phase 3: fill paths, counters and indexes.
  std::size_t at = 0;
  for (std::size_t seg = 0; seg < num_segs; ++seg) {
    const uint32_t len = lengths[seg];
    FASTPPR_CHECK(len < kNoSlot);  // positions must fit the 24-bit field
    for (uint32_t p = 0; p < len; ++p) {
      const NodeId v = nodes[at + p];
      paths_.PushBack(seg, slab::Pack(v, kNoSlot));
      AddVisitCounters(v, StepDirection(seg, p), +1);
    }
    for (uint32_t p = 0; p + 1 < len; ++p) RegisterStep(seg, p);
    if (static_cast<EndReason>(ends[seg]) != EndReason::kReset) {
      RegisterDangling(seg, len - 1);
    }
    at += len;
  }

  scratch_.ResetSegments(num_segs);
  dirty_.ResetCap(slab::DirtyCapForOwnedRows(paths_));
}

double SalsaWalkStore::NormalizedAuthority(NodeId v) const {
  if (total_auth_ == 0) return 0.0;
  return static_cast<double>(auth_visits_[v]) /
         static_cast<double>(total_auth_);
}

double SalsaWalkStore::NormalizedHub(NodeId v) const {
  if (total_hub_ == 0) return 0.0;
  return static_cast<double>(hub_visits_[v]) /
         static_cast<double>(total_hub_);
}

void SalsaWalkStore::AddVisitCounters(NodeId node, Direction side,
                                      int64_t delta) {
  // Hub-side positions are those about to step forward.
  if (side == Direction::kForward) {
    hub_visits_[node] += delta;
    total_hub_ += delta;
  } else {
    auth_visits_[node] += delta;
    total_auth_ += delta;
  }
}

void SalsaWalkStore::RegisterStep(uint64_t seg, uint32_t pos) {
  const NodeId node = PathNode(seg, pos);
  slab::SlabPool& pool = StepPool(StepDirection(seg, pos));
  const uint32_t slot = pool.PushBack(node, slab::Pack(seg, pos));
  FASTPPR_CHECK(slot < kNoSlot);
  SetPathSlot(seg, pos, slot);
}

void SalsaWalkStore::UnregisterStep(uint64_t seg, uint32_t pos) {
  const NodeId node = PathNode(seg, pos);
  RemoveIndexAt(&StepPool(StepDirection(seg, pos)), node,
                PathSlot(seg, pos), seg, pos);
  SetPathSlot(seg, pos, kNoSlot);
}

void SalsaWalkStore::RegisterDangling(uint64_t seg, uint32_t pos) {
  const NodeId node = PathNode(seg, pos);
  slab::SlabPool& pool = DanglingPool(End(seg));
  const uint32_t slot = pool.PushBack(node, slab::Pack(seg, pos));
  FASTPPR_CHECK(slot < kNoSlot);
  SetPathSlot(seg, pos, slot);
}

void SalsaWalkStore::UnregisterDangling(uint64_t seg, uint32_t pos) {
  const NodeId node = PathNode(seg, pos);
  RemoveIndexAt(&DanglingPool(End(seg)), node, PathSlot(seg, pos), seg,
                pos);
  SetPathSlot(seg, pos, kNoSlot);
}

void SalsaWalkStore::TruncateAfter(uint64_t seg, uint32_t keep_pos) {
  const uint32_t len = PathLen(seg);
  FASTPPR_CHECK(keep_pos < len);
  const uint32_t last = len - 1;
  // Entries are re-read each iteration: swap-remove fixups may retarget
  // doomed entries' slot fields; those fields are never cleared — the
  // row shrinks past them in one O(1) Truncate at the end.
  for (uint32_t q = last; q > keep_pos; --q) {
    const uint64_t word = paths_.Get(seg, q);
    const NodeId node = static_cast<NodeId>(slab::Hi(word));
    const uint32_t slot = slab::Lo(word);
    if (q == last) {
      if (End(seg) != EndReason::kReset) {
        RemoveIndexAt(&DanglingPool(End(seg)), node, slot, seg, q);
      }
    } else {
      RemoveIndexAt(&StepPool(StepDirection(seg, q)), node, slot, seg, q);
    }
    AddVisitCounters(node, StepDirection(seg, q), -1);
  }
  paths_.Truncate(seg, keep_pos + 1);
}

uint64_t SalsaWalkStore::ExtendFromTail(const DiGraph& g, uint64_t seg,
                                        NodeId forced, Rng* rng) {
  // Phase 1: pure simulation (see WalkStore::ExtendFromTail); identical
  // RNG stream to registering inline.
  const uint32_t start = PathLen(seg) - 1;  // pending (unindexed) tail
  EndReason end_reason = EndReason::kReset;
  NodeId cur = PathNode(seg, start);
  uint32_t pos = start;
  while (true) {
    const Direction dir = StepDirection(seg, pos);
    NodeId next;
    if (forced != kInvalidNode) {
      next = forced;
      forced = kInvalidNode;
    } else if (dir == Direction::kForward) {
      // Resets are drawn only before forward steps.
      if (rng->Bernoulli(epsilon_)) {
        end_reason = EndReason::kReset;
        break;
      }
      if (g.OutDegree(cur) == 0) {
        end_reason = EndReason::kDanglingFwd;
        break;
      }
      next = g.RandomOutNeighbor(cur, rng);
    } else {
      if (g.InDegree(cur) == 0) {
        end_reason = EndReason::kDanglingBwd;
        break;
      }
      next = g.RandomInNeighbor(cur, rng);
    }
    FASTPPR_CHECK(PathLen(seg) < kNoSlot);
    paths_.PushBack(seg, slab::Pack(next, kNoSlot));
    cur = next;
    ++pos;
  }
  const uint32_t end = PathLen(seg);
  seg_end_[seg] = static_cast<uint8_t>(end_reason);

  // Phase 2: register and count the fresh suffix in one sweep.
  for (uint32_t p = start; p + 1 < end; ++p) RegisterStep(seg, p);
  for (uint32_t p = start + 1; p < end; ++p) {
    AddVisitCounters(PathNode(seg, p), StepDirection(seg, p), +1);
  }
  if (end_reason != EndReason::kReset) RegisterDangling(seg, end - 1);
  // A reset tail keeps its pending kNoSlot slot.
  return end - 1 - start;
}

void SalsaWalkStore::CollectPivot(const DiGraph& g, Direction dir,
                                  const WindowDelta::Side& side,
                                  const WindowDelta::Pivot& p, Rng* rng,
                                  WalkUpdateStats* stats) {
  const bool forward = dir == Direction::kForward;
  const NodeId pivot = p.node;
  const std::span<const WindowDelta::Removed> removed = side.RemovedOf(p);
  if (!removed.empty()) {
    // Breaks: a stored step to x used a removed copy with probability
    // r_x / (c_after(x) + r_x) (see WalkStore::CollectPivot).
    remaining_.assign(removed.size(), 0);
    for (const NodeId w :
         forward ? g.OutNeighbors(pivot) : g.InNeighbors(pivot)) {
      const std::size_t i = WindowDelta::Side::IndexOf(removed, w);
      if (i < removed.size()) ++remaining_[i];
    }
    const auto row = StepPool(dir).RowSpan(pivot);
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
          PendingRepair{seg, pos, 0, 0, dir, slab::RepairKind::kBreak});
    }
  }

  const uint32_t k = p.num_added();
  if (k == 0) return;
  const std::size_t d_after =
      forward ? g.OutDegree(pivot) : g.InDegree(pivot);
  FASTPPR_CHECK_MSG(d_after >= k, "graph must already contain the window");
  if (d_after + p.removed_slots == k) {
    // The pivot had no edge on this side before the window: every
    // segment dangling here resumes through a (uniformly chosen) new
    // slot. The terminal visit already survived its reset draw, so the
    // step is unconditional.
    const EndReason reason =
        forward ? EndReason::kDanglingFwd : EndReason::kDanglingBwd;
    for (const uint64_t word : DanglingPool(reason).RowSpan(pivot)) {
      scratch_.Offer(PendingRepair{slab::Hi(word), slab::Lo(word),
                                   p.added_begin, k, dir,
                                   slab::RepairKind::kResume});
    }
    return;
  }

  const std::size_t w = StepPool(dir).Size(pivot);
  if (w == 0) return;
  const uint64_t marks =
      rng->Binomial(w, static_cast<double>(k) / static_cast<double>(d_after));
  if (marks == 0) return;
  scratch_.SampleDistinct(w, marks, rng);
  stats->entries_scanned += scratch_.picked().size();
  for (const std::size_t idx : scratch_.picked()) {
    const uint64_t word =
        StepPool(dir).Get(pivot, static_cast<uint32_t>(idx));
    scratch_.Offer(PendingRepair{slab::Hi(word), slab::Lo(word),
                                 p.added_begin, k, dir,
                                 slab::RepairKind::kSwitch});
  }
}

WalkUpdateStats SalsaWalkStore::OnEdgeInserted(const DiGraph& g, NodeId u,
                                               NodeId v, Rng* rng) {
  const EdgeEvent ev{EdgeEvent::Kind::kInsert, Edge{u, v}};
  single_.Build(std::span<const EdgeEvent>(&ev, 1), kRepairsInEdges);
  return RepairWindow(g, single_, rng);
}

WalkUpdateStats SalsaWalkStore::OnEdgeRemoved(const DiGraph& g, NodeId u,
                                              NodeId v, Rng* rng) {
  const EdgeEvent ev{EdgeEvent::Kind::kDelete, Edge{u, v}};
  single_.Build(std::span<const EdgeEvent>(&ev, 1), kRepairsInEdges);
  return RepairWindow(g, single_, rng);
}

WalkUpdateStats SalsaWalkStore::RepairWindow(const DiGraph& g,
                                             const WindowDelta& delta,
                                             Rng* rng) {
  WalkUpdateStats stats;
  FASTPPR_CHECK_MSG(delta.has_in_side(),
                    "SALSA repairs need the window's in side");
  if (delta.out().pivots.empty()) return stats;

  // Collect decisions at both endpoints of every changed edge *before*
  // mutating: a suffix re-simulated for one pivot is already correct
  // for the post-window graph and must not be switched again by another.
  scratch_.BeginEpoch();
  for (const WindowDelta::Pivot& p : delta.out().pivots) {
    CollectPivot(g, Direction::kForward, delta.out(), p, rng, &stats);
  }
  for (const WindowDelta::Pivot& p : delta.in().pivots) {
    CollectPivot(g, Direction::kBackward, delta.in(), p, rng, &stats);
  }
  if (scratch_.empty()) return stats;
  stats.store_called = 1;

  scratch_.OrderForApply();
  for (const PendingRepair& plan : scratch_.pending()) {
    const uint64_t seg = plan.seg;
    RecordDirtySegment(seg);
    ++stats.segments_updated;
    const bool forward = plan.dir == Direction::kForward;
    // A switched or resumed hop lands uniformly on the pivot's new
    // slots: destinations for a forward pivot, sources for a backward
    // one. No draw for a single new slot (sequential RNG-stream parity).
    auto draw_added = [&]() -> NodeId {
      const std::vector<NodeId>& added =
          forward ? delta.out().added : delta.in().added;
      const uint32_t i =
          plan.added_count == 1
              ? 0
              : static_cast<uint32_t>(rng->UniformIndex(plan.added_count));
      return added[plan.added_begin + i];
    };
    if (plan.kind == slab::RepairKind::kResume) {
      UnregisterDangling(seg, plan.pos);
      stats.walk_steps += ExtendFromTail(g, seg, draw_added(), rng);
      continue;
    }
    const NodeId pivot = PathNode(seg, plan.pos);
    TruncateAfter(seg, plan.pos);
    UnregisterStep(seg, plan.pos);
    if (plan.kind == slab::RepairKind::kSwitch) {
      stats.walk_steps += ExtendFromTail(g, seg, draw_added(), rng);
      continue;
    }
    const std::size_t d_after =
        forward ? g.OutDegree(pivot) : g.InDegree(pivot);
    if (d_after == 0) {
      seg_end_[seg] = static_cast<uint8_t>(
          forward ? EndReason::kDanglingFwd : EndReason::kDanglingBwd);
      RegisterDangling(seg, plan.pos);
    } else {
      // Break: redraw over every post-window slot on this side.
      const NodeId fresh = forward ? g.RandomOutNeighbor(pivot, rng)
                                   : g.RandomInNeighbor(pivot, rng);
      stats.walk_steps += ExtendFromTail(g, seg, fresh, rng);
    }
  }
  return stats;
}

void SalsaWalkStore::CheckConsistency(const DiGraph& g) const {
  std::vector<int64_t> hub_recount(num_nodes(), 0);
  std::vector<int64_t> auth_recount(num_nodes(), 0);
  for (uint64_t seg = 0; seg < num_segments(); ++seg) {
    const uint32_t len = PathLen(seg);
    // Unowned sources (sharded mode) have empty rows, owned never do.
    const NodeId source =
        static_cast<NodeId>(seg / (2 * walks_per_node_));
    if (len == 0) {
      FASTPPR_CHECK(!OwnsSource(source));
      continue;
    }
    FASTPPR_CHECK(OwnsSource(source));
    FASTPPR_CHECK(PathNode(seg, 0) == source);
    for (uint32_t p = 0; p < len; ++p) {
      const NodeId node = PathNode(seg, p);
      const uint32_t slot = PathSlot(seg, p);
      const Direction dir = StepDirection(seg, p);
      if (dir == Direction::kForward) {
        ++hub_recount[node];
      } else {
        ++auth_recount[node];
      }
      const bool terminal = (p + 1 == len);
      if (!terminal) {
        const NodeId next = PathNode(seg, p + 1);
        if (dir == Direction::kForward) {
          FASTPPR_CHECK_MSG(g.HasEdge(node, next),
                            "stored forward hop is not an edge");
        } else {
          FASTPPR_CHECK_MSG(g.HasEdge(next, node),
                            "stored backward hop is not an edge");
        }
        const slab::SlabPool& pool = StepPool(dir);
        FASTPPR_CHECK(slot < pool.Size(node));
        FASTPPR_CHECK(pool.Get(node, slot) == slab::Pack(seg, p));
      } else if (End(seg) == EndReason::kReset) {
        FASTPPR_CHECK(slot == kNoSlot);
        FASTPPR_CHECK(dir == Direction::kForward);
      } else {
        const bool fwd_dangle = End(seg) == EndReason::kDanglingFwd;
        FASTPPR_CHECK(fwd_dangle == (dir == Direction::kForward));
        const slab::SlabPool& pool =
            fwd_dangle ? dangling_fwd_ : dangling_bwd_;
        if (fwd_dangle) {
          FASTPPR_CHECK(g.OutDegree(node) == 0);
        } else {
          FASTPPR_CHECK(g.InDegree(node) == 0);
        }
        FASTPPR_CHECK(slot < pool.Size(node));
        FASTPPR_CHECK(pool.Get(node, slot) == slab::Pack(seg, p));
      }
    }
  }
  int64_t hub_total = 0;
  int64_t auth_total = 0;
  for (NodeId vtx = 0; vtx < num_nodes(); ++vtx) {
    FASTPPR_CHECK(hub_recount[vtx] == hub_visits_[vtx]);
    FASTPPR_CHECK(auth_recount[vtx] == auth_visits_[vtx]);
    hub_total += hub_recount[vtx];
    auth_total += auth_recount[vtx];
  }
  FASTPPR_CHECK(hub_total == total_hub_);
  FASTPPR_CHECK(auth_total == total_auth_);
}

}  // namespace fastppr
