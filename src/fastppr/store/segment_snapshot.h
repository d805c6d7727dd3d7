#ifndef FASTPPR_STORE_SEGMENT_SNAPSHOT_H_
#define FASTPPR_STORE_SEGMENT_SNAPSHOT_H_

// Frozen, reader-safe views of the walk segments and the adjacency for
// concurrent personalized serving (see DESIGN.md sections 6 and 11).
//
// PersonalizedTopK stitches a walk through the stored segments and takes
// manual steps on the social graph, both of which the single-writer
// ingest/repair machinery mutates in place (walk rows move between pool
// blocks, adjacency blocks between arena spans), so walking them live
// would race with ingestion. Readers walk versioned copies of the rows
// instead.
//
// A VersionedRows table keeps one atomic head pointer per row. A publish
// stamped with sequence number s writes, for each row it changed, an
// immutable version {older, s, length, u32 node ids} and stores it to
// the row's head with release; clean rows keep their head. A reader
// pinned at publish p loads the head with acquire and follows `older`
// while the version's seq is above p, so it sees every row as of p
// while later publishes land. A fetch is one lookup plus one hop per
// publish since p that changed the row.
//
// Reclamation is epoch-based: a version replaced at seq s is reachable
// only by readers pinned below s. The writer retires it with s and
// frees it at the first publish whose oldest pin (PublishPins::Oldest)
// is at or above s. The owner takes every pin, unpin and Oldest() read
// under one mutex, so a reader's last access to a version happens
// before the write that frees it, and readers never stall the writer.
// Versions live in the table's own size-class pool (store/block_pool.h):
// a freed version's block waits on its class's free list for the next
// version of that class, so a publish makes no heap call and churn
// leaves no holes in the heap.
//
// Thread contract: one writer at a time calls Write and Reclaim (and so
// is the pool's only user); any number of readers call Row between
// their pin and unpin.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "fastppr/graph/types.h"
#include "fastppr/store/block_pool.h"
#include "fastppr/util/check.h"
#include "fastppr/util/random.h"

namespace fastppr {

/// One row table of u32 node ids with per-row versions (see the header
/// comment).
class VersionedRows {
 public:
  /// Every version lives in the pool, which releases them when it dies.
  explicit VersionedRows(std::size_t num_rows) : heads_(num_rows) {}

  VersionedRows(const VersionedRows&) = delete;
  VersionedRows& operator=(const VersionedRows&) = delete;

  std::size_t num_rows() const { return heads_.size(); }

  /// Row `r` as a reader pinned at publish `seq` sees it.
  std::span<const NodeId> Row(uint64_t r, uint64_t seq) const {
    const Version* v = heads_[r].load(std::memory_order_acquire);
    while (v != nullptr && v->seq() > seq) v = v->older;
    if (v == nullptr) return {};
    return std::span<const NodeId>(v->ids(), v->length());
  }

  /// Writer: publishes row `r` at `seq` as `len` ids, the i-th being
  /// `id(i)`. A row that already has a version at `seq` (named twice
  /// in one window's record) or that stays empty is left alone. Returns
  /// the version bytes written (header plus ids).
  template <typename IdAt>
  std::size_t Write(uint64_t r, uint64_t seq, std::size_t len,
                    const IdAt& id) {
    const Version* head = heads_[r].load(std::memory_order_relaxed);
    if (head == nullptr ? len == 0 : head->seq() == seq) return 0;
    FASTPPR_CHECK_MSG(head == nullptr || head->seq() < seq,
                      "row publish sequence moved backwards");
    FASTPPR_CHECK_MSG(seq < kSeqLimit, "publish sequence exceeds 40 bits");
    FASTPPR_CHECK_MSG(len <= kMaxLength, "row length exceeds 24 bits");
    const std::size_t bytes = Bytes(len);
    Version* v = new (pool_.Allocate(bytes))
        Version{head, seq << kLengthBits | len};
    NodeId* ids = v->ids();
    for (std::size_t i = 0; i < len; ++i) ids[i] = id(i);
    heads_[r].store(v, std::memory_order_release);
    if (head != nullptr) retired_.push_back(Retired{seq, head});
    versions_.fetch_add(1, std::memory_order_relaxed);
    return bytes;
  }

  /// Writer: frees every version replaced at or below `oldest_pin`, the
  /// lowest publish any reader may still be pinned at.
  void Reclaim(uint64_t oldest_pin) {
    constexpr std::size_t kAhead = 16;  // hides the misses on old versions
    std::size_t done = 0;
    while (done < retired_.size() && retired_[done].seq <= oldest_pin) {
      if (done + kAhead < retired_.size()) {
        __builtin_prefetch(retired_[done + kAhead].version);
      }
      Free(retired_[done++].version);
    }
    retired_.erase(retired_.begin(), retired_.begin() + done);
  }

  /// Bytes held for readers: the head array plus every version not yet
  /// freed (retired ones included), headers and ids.
  std::size_t MemoryBytes() const {
    return heads_.size() * sizeof(heads_[0]) + pool_.live_bytes();
  }
  /// Row metadata alone: the head array plus the version headers.
  std::size_t row_table_bytes() const {
    return heads_.size() * sizeof(heads_[0]) +
           versions() * sizeof(Version);
  }
  /// Versions allocated and not yet freed.
  std::size_t versions() const {
    return versions_.load(std::memory_order_relaxed);
  }
  /// Replaced versions waiting for their readers to unpin, and the
  /// publish that replaced the oldest of them (0 when none waits).
  std::size_t retired() const { return retired_.size(); }
  uint64_t oldest_retired_seq() const {
    return retired_.empty() ? 0 : retired_.front().seq;
  }
  /// The versions' allocator: its live bytes are the versions not yet
  /// freed, its held bytes what it took from operator new.
  const slab::BlockPool& pool() const { return pool_; }

 private:
  /// Header bounds: a version packs its seq and length into one word.
  static constexpr uint32_t kLengthBits = 24;
  static constexpr uint64_t kMaxLength = (uint64_t{1} << kLengthBits) - 1;
  static constexpr uint64_t kSeqLimit = uint64_t{1} << (64 - kLengthBits);

  /// 16 bytes: the older version, then the seq (high 40 bits) and the
  /// length (low 24 bits) in one word.
  struct Version {
    const Version* older;
    uint64_t seq_length;
    uint64_t seq() const { return seq_length >> kLengthBits; }
    std::size_t length() const { return seq_length & kMaxLength; }
    NodeId* ids() { return reinterpret_cast<NodeId*>(this + 1); }
    const NodeId* ids() const {
      return reinterpret_cast<const NodeId*>(this + 1);
    }
  };
  static_assert(sizeof(Version) == 16);
  struct Retired {
    uint64_t seq;  ///< the publish that replaced `version`
    const Version* version;
  };

  static std::size_t Bytes(std::size_t len) {
    return sizeof(Version) + len * sizeof(NodeId);
  }

  void Free(const Version* v) {
    versions_.fetch_sub(1, std::memory_order_relaxed);
    pool_.Free(const_cast<Version*>(v), Bytes(v->length()));
  }

  slab::BlockPool pool_;  ///< every version's block (writer only)
  std::vector<std::atomic<const Version*>> heads_;
  std::vector<Retired> retired_;  ///< ascending seq (writer only)
  std::atomic<std::size_t> versions_{0};
};

/// Readers' pins on publishes, for VersionedRows reclamation. Not
/// synchronized: its owner makes every call under one mutex.
class PublishPins {
 public:
  /// One publish: its sequence number and the ingestion epoch (windows
  /// applied) it shows.
  struct Pin {
    uint64_t seq = 0;
    uint64_t epoch = 0;
  };

  const Pin& current() const { return current_; }

  /// Pins the current publish.
  Pin Acquire() {
    ++current_count_;
    return current_;
  }

  void Release(const Pin& pin) {
    if (pin.seq == current_.seq) {
      --current_count_;
      return;
    }
    for (auto it = older_.begin(); it != older_.end(); ++it) {
      if (it->seq == pin.seq) {
        if (--it->count == 0) older_.erase(it);
        return;
      }
    }
    FASTPPR_CHECK_MSG(false, "released a pin that was never acquired");
  }

  /// Makes `next` the publish new readers pin.
  void Advance(const Pin& next) {
    FASTPPR_CHECK(next.seq > current_.seq);
    if (current_count_ > 0) {
      older_.push_back(Held{current_.seq, current_count_});
    }
    current_ = next;
    current_count_ = 0;
  }

  /// The oldest publish a reader may still be reading at.
  uint64_t Oldest() const {
    return older_.empty() ? current_.seq : older_.front().seq;
  }

 private:
  struct Held {
    uint64_t seq;
    std::size_t count;
  };
  Pin current_;
  std::size_t current_count_ = 0;
  std::vector<Held> older_;  ///< pinned older publishes, ascending seq
};

/// The walk segments as a reader pinned at `seq` sees them: a StoreView
/// (core/ppr_walker.h) over the global segment table, row u * spn + k.
class FrozenSegments {
 public:
  class Segment {
   public:
    explicit Segment(std::span<const NodeId> ids) : ids_(ids) {}
    std::size_t size() const { return ids_.size(); }
    NodeId node(std::size_t p) const { return ids_[p]; }

   private:
    std::span<const NodeId> ids_;
  };

  FrozenSegments(const VersionedRows* rows, uint64_t seq,
                 std::size_t walks_per_node, std::size_t segments_per_node,
                 double epsilon)
      : rows_(rows),
        seq_(seq),
        walks_per_node_(walks_per_node),
        spn_(segments_per_node),
        epsilon_(epsilon) {}

  std::size_t walks_per_node() const { return walks_per_node_; }
  double epsilon() const { return epsilon_; }
  Segment GetSegment(NodeId u, std::size_t k) const {
    return Segment(rows_->Row(static_cast<uint64_t>(u) * spn_ + k, seq_));
  }

 private:
  const VersionedRows* rows_;
  uint64_t seq_;
  std::size_t walks_per_node_;
  std::size_t spn_;
  double epsilon_;
};

/// The adjacency as a reader pinned at `seq` sees it: the out side
/// always, the in side when the table exists (SALSA walks step
/// backwards; PageRank walks never do). Mirrors the DiGraph read API the
/// walkers use, including neighbour sampling: rows are written in
/// canonical slot order, so the same RNG stream draws the same
/// neighbours as a live walk at the same epoch.
class FrozenAdjacency {
 public:
  FrozenAdjacency(const VersionedRows* out, const VersionedRows* in,
                  uint64_t seq)
      : out_(out), in_(in), seq_(seq) {}

  std::size_t num_nodes() const { return out_->num_rows(); }

  std::size_t OutDegree(NodeId v) const { return OutNeighbors(v).size(); }
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return out_->Row(v, seq_);
  }
  NodeId RandomOutNeighbor(NodeId v, Rng* rng) const {
    return Sample(OutNeighbors(v), rng);
  }

  std::size_t InDegree(NodeId v) const { return InNeighbors(v).size(); }
  std::span<const NodeId> InNeighbors(NodeId v) const {
    FASTPPR_CHECK(in_ != nullptr);
    return in_->Row(v, seq_);
  }
  NodeId RandomInNeighbor(NodeId v, Rng* rng) const {
    return Sample(InNeighbors(v), rng);
  }

 private:
  static NodeId Sample(std::span<const NodeId> row, Rng* rng) {
    if (row.empty()) return kInvalidNode;
    return row[rng->UniformIndex(row.size())];
  }

  const VersionedRows* out_;
  const VersionedRows* in_;
  uint64_t seq_;
};

}  // namespace fastppr

#endif  // FASTPPR_STORE_SEGMENT_SNAPSHOT_H_
