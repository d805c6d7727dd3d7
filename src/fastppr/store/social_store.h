#ifndef FASTPPR_STORE_SOCIAL_STORE_H_
#define FASTPPR_STORE_SOCIAL_STORE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/types.h"
#include "fastppr/util/status.h"

namespace fastppr {

/// The "Social Store" of the paper: the FlockDB-like service holding the
/// follow graph in distributed shared memory with random-access reads.
///
/// We emulate it with an in-memory DiGraph partitioned into hash shards and
/// instrument every access: the paper's cost model counts *calls to the
/// store*, not bytes or wall-clock, so per-shard read/write counters are the
/// measured quantity (Figure 6 reports exactly "number of fetches to
/// FlockDB"). An optional per-call simulated latency accumulator lets
/// benches convert call counts into a modelled service time.
///
/// Sharing contract: since PR 3 ONE SocialStore is shared by every shard
/// of a ShardedEngine (the graph slab is epoch-versioned; mutations
/// happen only in the single-writer ingest phase between parallel repair
/// phases). The counters are therefore per-shard relaxed atomics,
/// aggregated on read — concurrent counted accesses from parallel repair
/// or serving threads are a cache-line bounce at worst, never a data
/// race. Graph *mutations* remain single-writer by contract (asserted by
/// the engine via the graph epoch).
class SocialStore {
 public:
  struct Options {
    std::size_t num_shards = 16;
    /// Modelled cost of one remote call, in microseconds (accumulated, not
    /// slept).
    double simulated_call_micros = 500.0;
  };

  explicit SocialStore(std::size_t num_nodes, Options options);
  explicit SocialStore(std::size_t num_nodes)
      : SocialStore(num_nodes, Options{}) {}

  std::size_t num_nodes() const { return graph_.num_nodes(); }
  std::size_t num_edges() const { return graph_.num_edges(); }

  /// Write path: counted per shard of the source node. Single-writer.
  Status AddEdge(NodeId src, NodeId dst);
  Status RemoveEdge(NodeId src, NodeId dst);

  /// Bulk-copies `initial`'s edges into the graph, uncounted: bootstrap
  /// is modelled as local replica construction, not remote calls. The
  /// one initial-load path shared by every engine constructor.
  void ImportGraph(const DiGraph& initial);

  /// Read path: counted per shard of the queried node. Safe to call from
  /// concurrent readers while the graph epoch is frozen.
  std::span<const NodeId> GetOutNeighbors(NodeId v);
  std::span<const NodeId> GetInNeighbors(NodeId v);
  std::size_t GetOutDegree(NodeId v);
  std::size_t GetInDegree(NodeId v);

  /// Uncounted local access for algorithms that are explicitly modelled as
  /// owning a local replica (e.g. offline baselines). Incremental engines
  /// use the counted accessors.
  const DiGraph& graph() const { return graph_; }

  /// The graph's mutation epoch (the single-writer freeze token).
  uint64_t epoch() const { return graph_.epoch(); }

  /// Heap bytes held by the graph storage (benchmark accounting).
  std::size_t MemoryBytes() const { return graph_.MemoryBytes(); }

  std::size_t shard_of(NodeId v) const { return v % options_.num_shards; }

  /// Total counted reads/writes, aggregated over the shard stripes.
  uint64_t reads() const;
  uint64_t writes() const;
  uint64_t shard_reads(std::size_t shard) const {
    return stripes_[shard].reads.load(std::memory_order_relaxed);
  }
  /// Modelled total service time of all counted calls, microseconds.
  double simulated_micros() const {
    return static_cast<double>(reads() + writes()) *
           options_.simulated_call_micros;
  }

  void ResetStats();

  /// Durability hooks (DESIGN.md §8): the graph slab verbatim plus the
  /// per-shard call counters, so a recovered store resumes the exact
  /// fetch/write ledger the paper's cost model is stated in. Only safe
  /// while no concurrent counted access runs (the single-writer phase
  /// boundary, where checkpoints are taken).
  template <typename Sink>
  void SaveTo(Sink* w) const {
    graph_.SaveTo(w);
    w->Pod(static_cast<uint64_t>(stripes_.size()));
    for (const CounterStripe& s : stripes_) {
      w->Pod(s.reads.load(std::memory_order_relaxed));
      w->Pod(s.writes.load(std::memory_order_relaxed));
    }
  }
  template <typename Src>
  bool LoadFrom(Src* r) {
    if (!graph_.LoadFrom(r)) return false;
    uint64_t stripes = 0;
    if (!r->Pod(&stripes)) return false;
    if (stripes != stripes_.size()) {
      return r->Fail("social store stripe count mismatch");
    }
    for (CounterStripe& s : stripes_) {
      uint64_t reads = 0, writes = 0;
      if (!r->Pod(&reads) || !r->Pod(&writes)) return false;
      s.reads.store(reads, std::memory_order_relaxed);
      s.writes.store(writes, std::memory_order_relaxed);
    }
    return true;
  }

 private:
  /// One shard's counters, padded to a cache line so concurrent readers
  /// touching different shards never false-share.
  struct alignas(64) CounterStripe {
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> writes{0};
  };

  void CountRead(NodeId v) {
    stripes_[shard_of(v)].reads.fetch_add(1, std::memory_order_relaxed);
  }
  void CountWrite(NodeId v) {
    stripes_[shard_of(v)].writes.fetch_add(1, std::memory_order_relaxed);
  }

  Options options_;
  DiGraph graph_;
  std::vector<CounterStripe> stripes_;
};

}  // namespace fastppr

#endif  // FASTPPR_STORE_SOCIAL_STORE_H_
