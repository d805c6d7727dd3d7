#ifndef FASTPPR_STORE_SEGMENT_SNAPSHOT_H_
#define FASTPPR_STORE_SEGMENT_SNAPSHOT_H_

// Frozen, reader-safe views of the walk segments and the adjacency for
// concurrent personalized serving (see DESIGN.md sections 6 and 11).
//
// PersonalizedTopK stitches a walk through the stored segments and takes
// manual steps on the social graph — both of which the single-writer
// ingest/repair machinery mutates in place (slab rows relocate, arenas
// compact), so walking them live would race with ingestion. This header
// publishes immutable views at window boundaries; readers pin a view
// with a shared_ptr copy and walk it with plain loads.
//
// Since the pipelined-publish refactor the views are STRUCTURALLY SHARED
// (store/shared_snapshot.h): a frozen table is an extent chain over
// refcounted root chunks, each publish allocates only the rows the
// window's dirty feeds reported (~1× the delta), and clean chunks are
// shared with the previous frozen epoch — freed by their refcount when
// the last reader unpins. The pooled full-copy buffers this header used
// to rotate (PR 4) are gone.
//
// Publish is split into two halves so the pipelined engine can overlap
// them with ingestion:
//   * Capture (boundary thread): reads the store/graph at a frozen
//     window boundary into a self-contained CapturedRows payload — the
//     only half that touches live engine state.
//   * Assemble (publisher thread): folds the capture into the builder's
//     shared chain and yields the immutable frozen view. Touches only
//     builder state, so it runs concurrently with the next window's
//     ingest and repair.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/types.h"
#include "fastppr/store/shared_snapshot.h"
#include "fastppr/store/walk_slab.h"
#include "fastppr/util/check.h"
#include "fastppr/util/random.h"
#include "fastppr/util/shard.h"

namespace fastppr {

/// The dense owned-segment addressing of the frozen row tables (see
/// DESIGN.md section 7). The live stores keep GLOBAL segment ids
/// (u * spn + k) with empty unowned rows, which is free there — one
/// store per shard, rows shared with the repair machinery. A frozen
/// *copy* is another matter: each shard's snapshot pool holds B pooled
/// buffers, and a global row table would pay n * spn row headers per
/// buffer per shard — S-fold duplication of pure metadata. Each shard's
/// FrozenSegments therefore stores ONLY its owned rows, densely packed
/// as local_rank(u) * spn + k, and readers translate through this
/// compact global->local map, published alongside the frozen views.
///
/// The map is a pure function of (num_nodes, num_shards, spn) — the
/// node partition is fixed for the engine's lifetime — so it is built
/// once, shared by every shard's pool and every reader via shared_ptr,
/// and never mutated: readers resolve through it with plain loads while
/// the writer rotates buffers.
class SegmentOwnership {
 public:
  SegmentOwnership(std::size_t num_nodes, uint32_t num_shards,
                   std::size_t segments_per_node)
      : num_shards_(num_shards),
        spn_(segments_per_node),
        local_of_node_(num_nodes),
        owned_(num_shards) {
    FASTPPR_CHECK(num_shards >= 1 && segments_per_node >= 1);
    for (NodeId u = 0; u < num_nodes; ++u) {
      const uint32_t s = ShardOfNode(u, num_shards);
      local_of_node_[u] = static_cast<uint32_t>(owned_[s].size());
      owned_[s].push_back(u);
    }
  }

  uint32_t num_shards() const { return num_shards_; }
  std::size_t segments_per_node() const { return spn_; }

  /// The shard whose dense table holds node u's segments.
  uint32_t OwnerOf(NodeId u) const { return ShardOfNode(u, num_shards_); }

  /// Nodes owned by `shard`, in increasing global id order — the dense
  /// row layout of that shard's FrozenSegments.
  const std::vector<NodeId>& owned_nodes(std::size_t shard) const {
    return owned_[shard];
  }
  std::size_t owned_rows(std::size_t shard) const {
    return owned_[shard].size() * spn_;
  }

  /// Dense row of segment (u, k) inside u's owner shard's table.
  uint64_t LocalRow(NodeId u, std::size_t k) const {
    return static_cast<uint64_t>(local_of_node_[u]) * spn_ + k;
  }
  /// Dense row of a global segment id (u * spn + k).
  uint64_t LocalRowOfGlobal(uint64_t global_seg) const {
    return LocalRow(static_cast<NodeId>(global_seg / spn_),
                    global_seg % spn_);
  }
  /// Global segment id of `shard`'s dense row `local`.
  uint64_t GlobalRowOf(std::size_t shard, uint64_t local) const {
    return static_cast<uint64_t>(owned_[shard][local / spn_]) * spn_ +
           local % spn_;
  }

 private:
  uint32_t num_shards_;
  std::size_t spn_;
  std::vector<uint32_t> local_of_node_;  ///< rank within the owner shard
  std::vector<std::vector<NodeId>> owned_;
};

/// Immutable view of one walk store's segment node-paths at one publish
/// epoch, backed by a structurally shared row table. Rows hold ONLY the
/// owning shard's segments, densely indexed by
/// SegmentOwnership::LocalRow — a reader routes (u, k) to the owner
/// shard's view and translates through the shared map.
class FrozenSegments {
 public:
  /// One frozen segment: a span over the packed path words. Readers use
  /// only the node sequence; the low index-slot bits are dead weight the
  /// raw-word copy carries along.
  class SegmentRef {
   public:
    explicit SegmentRef(std::span<const uint64_t> words) : words_(words) {}
    std::size_t size() const { return words_.size(); }
    bool empty() const { return words_.empty(); }
    NodeId node(std::size_t p) const {
      return static_cast<NodeId>(slab::Hi(words_[p]));
    }

   private:
    std::span<const uint64_t> words_;
  };

  /// Ingestion epoch (windows applied) this view was published at.
  uint64_t epoch() const { return rows_->epoch(); }
  /// DENSE row count: the owning shard's rows only (owned * spn).
  std::size_t num_segments() const { return rows_->num_rows(); }

  /// `seg` is a DENSE local row (SegmentOwnership::LocalRow).
  SegmentRef Segment(uint64_t seg) const {
    return SegmentRef(rows_->Row(seg));
  }

  /// Heap bytes reachable from this view (shared chunks counted in
  /// full; see SharedRows::MemoryBytes).
  std::size_t MemoryBytes() const { return rows_->MemoryBytes(); }
  /// Row-metadata bytes alone — the term the dense addressing shrinks
  /// S-fold versus a global n * spn table per shard.
  std::size_t row_table_bytes() const { return rows_->row_table_bytes(); }

  /// Test hook: the underlying shared table (chunk refcount audits).
  const snap::SharedRows<uint64_t>& shared_rows() const { return *rows_; }

 private:
  friend class SegmentSnapshotBuilder;
  explicit FrozenSegments(
      std::shared_ptr<const snap::SharedRows<uint64_t>> rows)
      : rows_(std::move(rows)) {}

  std::shared_ptr<const snap::SharedRows<uint64_t>> rows_;
};

/// Immutable view of the graph's adjacency at one publish epoch: the
/// out-side always, the in-side only when requested (SALSA walks step
/// backwards; PageRank walks never do). Mirrors the DiGraph read API the
/// walkers use, including bit-identical neighbour sampling: rows are
/// captured in canonical slot order, so the same RNG stream draws the
/// same neighbours as a live walk at the same epoch.
class FrozenAdjacency {
 public:
  uint64_t epoch() const { return out_->epoch(); }
  std::size_t num_nodes() const { return out_->num_rows(); }
  bool has_in_side() const { return in_ != nullptr; }

  std::size_t OutDegree(NodeId v) const { return out_->Row(v).size(); }
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return out_->Row(v);
  }
  NodeId RandomOutNeighbor(NodeId v, Rng* rng) const {
    const auto outs = out_->Row(v);
    if (outs.empty()) return kInvalidNode;
    return outs[rng->UniformIndex(outs.size())];
  }

  std::size_t InDegree(NodeId v) const {
    FASTPPR_CHECK(in_ != nullptr);
    return in_->Row(v).size();
  }
  std::span<const NodeId> InNeighbors(NodeId v) const {
    FASTPPR_CHECK(in_ != nullptr);
    return in_->Row(v);
  }
  NodeId RandomInNeighbor(NodeId v, Rng* rng) const {
    const auto ins = InNeighbors(v);
    if (ins.empty()) return kInvalidNode;
    return ins[rng->UniformIndex(ins.size())];
  }

  /// Heap bytes reachable from this view (both sides).
  std::size_t MemoryBytes() const {
    return out_->MemoryBytes() + (in_ != nullptr ? in_->MemoryBytes() : 0);
  }

  /// Test hooks (chunk refcount audits).
  const snap::SharedRows<NodeId>& shared_out() const { return *out_; }

 private:
  friend class AdjacencySnapshotBuilder;
  FrozenAdjacency() = default;

  std::shared_ptr<const snap::SharedRows<NodeId>> out_;
  std::shared_ptr<const snap::SharedRows<NodeId>> in_;
};

/// Capture/assemble pair for ONE shard's frozen segment table. The
/// dirty feed passed to Capture carries GLOBAL segment ids (the store's
/// native addressing); the builder translates through the shared
/// SegmentOwnership map. Thread contract: Capture on the boundary
/// thread, Assemble on the publisher thread, never concurrently with
/// each other for the same window (the publish queue orders them).
class SegmentSnapshotBuilder {
 public:
  SegmentSnapshotBuilder(
      std::shared_ptr<const SegmentOwnership> ownership, std::size_t shard,
      snap::SharedRowBuilder<uint64_t>::Options opts = {})
      : ownership_(std::move(ownership)), shard_(shard), builder_(opts) {
    FASTPPR_CHECK(ownership_ != nullptr &&
                  shard_ < ownership_->num_shards());
  }

  /// Boundary-thread half: reads the store at a frozen window boundary.
  /// `dirty` is the store's dirty-segment feed since the last capture
  /// (global ids, duplicate-inclusive; the caller clears it afterwards);
  /// `force_full` captures the whole table (first publish, untracked
  /// mutations, feed overflow). `Store` is WalkStore or SalsaWalkStore
  /// (anything exposing SegmentWords(global_seg)).
  template <typename Store>
  void Capture(const Store& store, std::span<const uint64_t> dirty,
               bool force_full, snap::CapturedRows<uint64_t>* out) {
    const SegmentOwnership& own = *ownership_;
    const std::size_t rows = own.owned_rows(shard_);
    out->Clear();
    if (force_full) {
      out->full = true;
      out->offsets.reserve(rows + 1);
      out->offsets.push_back(0);
      for (std::size_t row = 0; row < rows; ++row) {
        const auto words = store.SegmentWords(own.GlobalRowOf(shard_, row));
        out->arena.insert(out->arena.end(), words.begin(), words.end());
        out->offsets.push_back(out->arena.size());
      }
      return;
    }
    // Presented volume (the delta-byte denominator): per feed ENTRY,
    // duplicates included — that is the replay work a feed-driven copy
    // model performs.
    auto& st = *builder_.stats();
    uint64_t presented = 0;
    scratch_.clear();
    for (uint64_t seg : dirty) {
      // The stores only repair their own walks, so every dirty id must
      // already be owned here; a foreign id means the feeds got
      // crossed, which must not silently corrupt a dense row.
      FASTPPR_CHECK_MSG(
          own.OwnerOf(static_cast<NodeId>(
              seg / own.segments_per_node())) == shard_,
          "dirty segment not owned by this shard's snapshot");
      presented += sizeof(uint64_t) +
                   store.SegmentWords(seg).size() * sizeof(uint64_t);
      scratch_.push_back(own.LocalRowOfGlobal(seg));
    }
    st.presented_entries.fetch_add(dirty.size(),
                                   std::memory_order_relaxed);
    st.presented_bytes.fetch_add(presented, std::memory_order_relaxed);
    std::sort(scratch_.begin(), scratch_.end());
    scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                   scratch_.end());
    out->rows = scratch_;
    out->offsets.reserve(scratch_.size() + 1);
    out->offsets.push_back(0);
    for (uint64_t local : scratch_) {
      const auto words =
          store.SegmentWords(own.GlobalRowOf(shard_, local));
      out->arena.insert(out->arena.end(), words.begin(), words.end());
      out->offsets.push_back(out->arena.size());
    }
  }

  /// Publisher-thread half: folds the capture into the shared chain.
  std::shared_ptr<const FrozenSegments> Assemble(
      snap::CapturedRows<uint64_t>&& cap, uint64_t epoch) {
    return std::shared_ptr<const FrozenSegments>(
        new FrozenSegments(builder_.Publish(std::move(cap), epoch)));
  }

  const snap::SharedPublishStats& stats() const { return builder_.stats(); }

 private:
  std::shared_ptr<const SegmentOwnership> ownership_;
  std::size_t shard_;
  snap::SharedRowBuilder<uint64_t> builder_;
  std::vector<uint64_t> scratch_;
};

/// The capture payload of one adjacency publish (both sides).
struct AdjacencyCapture {
  snap::CapturedRows<NodeId> out;
  snap::CapturedRows<NodeId> in;
};

/// Capture/assemble pair for the frozen adjacency. `capture_in` fixes
/// whether views carry the in-side (decided once by the serving engine:
/// SALSA yes, PageRank no). Same thread contract as
/// SegmentSnapshotBuilder.
class AdjacencySnapshotBuilder {
 public:
  explicit AdjacencySnapshotBuilder(
      bool capture_in, snap::SharedRowBuilder<NodeId>::Options opts = {})
      : capture_in_(capture_in), out_b_(opts), in_b_(opts) {}

  /// `applied` are the graph mutations since the last capture: edge
  /// (u, v) dirties u's out-row and (when captured) v's in-row. `g`
  /// must be the graph frozen at the capture's window boundary (the
  /// engine's caller does not mutate it until the boundary returns).
  void Capture(const DiGraph& g, std::span<const Edge> applied,
               bool force_full, AdjacencyCapture* out) {
    if (force_full) {
      FullSide(g, /*in_side=*/false, &out->out);
      if (capture_in_) FullSide(g, /*in_side=*/true, &out->in);
      return;
    }
    out_scratch_.clear();
    in_scratch_.clear();
    uint64_t out_presented = 0;
    uint64_t in_presented = 0;
    for (const Edge& e : applied) {
      out_scratch_.push_back(e.src);
      out_presented += sizeof(uint64_t) +
                       g.OutDegree(e.src) * sizeof(NodeId);
      if (capture_in_) {
        in_scratch_.push_back(e.dst);
        in_presented += sizeof(uint64_t) +
                        g.InDegree(e.dst) * sizeof(NodeId);
      }
    }
    auto& so = *out_b_.stats();
    so.presented_entries.fetch_add(applied.size(),
                                   std::memory_order_relaxed);
    so.presented_bytes.fetch_add(out_presented, std::memory_order_relaxed);
    DeltaSide(g, /*in_side=*/false, &out_scratch_, &out->out);
    if (capture_in_) {
      auto& si = *in_b_.stats();
      si.presented_entries.fetch_add(applied.size(),
                                     std::memory_order_relaxed);
      si.presented_bytes.fetch_add(in_presented,
                                   std::memory_order_relaxed);
      DeltaSide(g, /*in_side=*/true, &in_scratch_, &out->in);
    }
  }

  std::shared_ptr<const FrozenAdjacency> Assemble(AdjacencyCapture&& cap,
                                                  uint64_t epoch) {
    auto view = std::shared_ptr<FrozenAdjacency>(new FrozenAdjacency());
    view->out_ = out_b_.Publish(std::move(cap.out), epoch);
    if (capture_in_) view->in_ = in_b_.Publish(std::move(cap.in), epoch);
    return view;
  }

  bool capture_in() const { return capture_in_; }
  const snap::SharedPublishStats& out_stats() const {
    return out_b_.stats();
  }
  const snap::SharedPublishStats& in_stats() const { return in_b_.stats(); }

 private:
  static void FullSide(const DiGraph& g, bool in_side,
                       snap::CapturedRows<NodeId>* out) {
    const std::size_t n = g.num_nodes();
    out->Clear();
    out->full = true;
    out->offsets.reserve(n + 1);
    out->offsets.push_back(0);
    for (NodeId v = 0; v < n; ++v) {
      const auto row = in_side ? g.InNeighbors(v) : g.OutNeighbors(v);
      out->arena.insert(out->arena.end(), row.begin(), row.end());
      out->offsets.push_back(out->arena.size());
    }
  }

  static void DeltaSide(const DiGraph& g, bool in_side,
                        std::vector<NodeId>* dirty,
                        snap::CapturedRows<NodeId>* out) {
    std::sort(dirty->begin(), dirty->end());
    dirty->erase(std::unique(dirty->begin(), dirty->end()), dirty->end());
    out->Clear();
    out->rows.assign(dirty->begin(), dirty->end());
    out->offsets.reserve(dirty->size() + 1);
    out->offsets.push_back(0);
    for (NodeId v : *dirty) {
      const auto row = in_side ? g.InNeighbors(v) : g.OutNeighbors(v);
      out->arena.insert(out->arena.end(), row.begin(), row.end());
      out->offsets.push_back(out->arena.size());
    }
  }

  bool capture_in_;
  snap::SharedRowBuilder<NodeId> out_b_;
  snap::SharedRowBuilder<NodeId> in_b_;
  std::vector<NodeId> out_scratch_;
  std::vector<NodeId> in_scratch_;
};

}  // namespace fastppr

#endif  // FASTPPR_STORE_SEGMENT_SNAPSHOT_H_
