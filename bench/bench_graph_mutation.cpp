// Graph-mutation micro-bench: the slab-backed DiGraph
// (graph/digraph.h) on the operations the
// incremental engines actually issue — bulk insertion, random-order
// deletion, mixed add/remove churn, HasEdge probes and random-neighbour
// sampling sweeps — plus the bytes-per-edge it pays, after bulk
// insertion AND after the churn phase (where the compact slab's
// coalescing/compaction passes must keep fragmentation bounded). The
// bytes_per_edge_compact key is the memory-diet marker CI greps for.
//
//   bench_graph_mutation [--smoke] [--json <path>]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fastppr/graph/digraph.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/random.h"
#include "fastppr/util/table_printer.h"
#include "fastppr/util/timer.h"

using namespace fastppr;
using namespace fastppr::bench;

namespace {

struct MutationNumbers {
  double add_eps = 0.0;      ///< bulk insertions / sec
  double remove_eps = 0.0;   ///< random-order deletions / sec
  double churn_eps = 0.0;    ///< mixed add/remove ops / sec
  double probe_qps = 0.0;    ///< HasEdge probes / sec
  double sample_qps = 0.0;   ///< RandomOutNeighbor draws / sec
  double bytes_per_edge = 0.0;
  /// bytes/live-edge after the churn phase — the fragmentation the
  /// layout accumulates under steady add/remove load (the compact
  /// slab's coalescing/compaction passes keep this bounded).
  double churn_bytes_per_edge = 0.0;
};

/// One full pass over a fixed op schedule.
MutationNumbers Measure(std::size_t n, const std::vector<Edge>& edges,
                        std::size_t churn_ops, std::size_t probes) {
  MutationNumbers out;
  DiGraph g(n);

  {
    WallTimer t;
    for (const Edge& e : edges) {
      if (!g.AddEdge(e.src, e.dst).ok()) std::abort();
    }
    out.add_eps = static_cast<double>(edges.size()) / t.ElapsedSeconds();
  }
  out.bytes_per_edge = static_cast<double>(g.MemoryBytes()) /
                       static_cast<double>(edges.size());

  {
    Rng rng(99);
    uint64_t found = 0;
    WallTimer t;
    for (std::size_t i = 0; i < probes; ++i) {
      const Edge& e = edges[rng.UniformIndex(edges.size())];
      // Mix hits and (likely) misses.
      found += g.HasEdge(e.src, e.dst) + g.HasEdge(e.dst, e.src);
    }
    out.probe_qps =
        static_cast<double>(2 * probes) / t.ElapsedSeconds();
    if (found == 0) std::abort();
  }

  {
    Rng rng(100);
    uint64_t sink = 0;
    WallTimer t;
    for (std::size_t i = 0; i < probes; ++i) {
      const NodeId u = edges[rng.UniformIndex(edges.size())].src;
      sink += g.RandomOutNeighbor(u, &rng);
    }
    out.sample_qps = static_cast<double>(probes) / t.ElapsedSeconds();
    if (sink == 0) std::abort();
  }

  // Mixed churn on the live edge set: ~half removals of random live
  // copies, half re-insertions. Hub deletions are frequent (power-law
  // sources).
  {
    std::vector<Edge> live = edges;
    Rng rng(101);
    WallTimer t;
    for (std::size_t i = 0; i < churn_ops; ++i) {
      if (!live.empty() && rng.Bernoulli(0.5)) {
        const std::size_t at = rng.UniformIndex(live.size());
        if (!g.RemoveEdge(live[at].src, live[at].dst).ok()) std::abort();
        live[at] = live.back();
        live.pop_back();
      } else {
        const Edge e = edges[rng.UniformIndex(edges.size())];
        if (!g.AddEdge(e.src, e.dst).ok()) std::abort();
        live.push_back(e);
      }
    }
    out.churn_eps = static_cast<double>(churn_ops) / t.ElapsedSeconds();
    if (!live.empty()) {
      out.churn_bytes_per_edge = static_cast<double>(g.MemoryBytes()) /
                                 static_cast<double>(live.size());
    }

    // Random-order teardown of whatever is live.
    rng.Shuffle(&live);
    WallTimer rt;
    for (const Edge& e : live) {
      if (!g.RemoveEdge(e.src, e.dst).ok()) std::abort();
    }
    out.remove_eps =
        static_cast<double>(live.size()) / rt.ElapsedSeconds();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  Banner("Graph mutation: slab adjacency store",
         "the Social Store update path of Bahmani et al., VLDB 2010 "
         "(Section 1.1)");

  const std::size_t n = smoke ? 2000 : 50000;
  Rng rng(17);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = 10;
  auto edges = PreferentialAttachment(gen, &rng);
  rng.Shuffle(&edges);
  const std::size_t churn_ops = smoke ? 20000 : 2000000;
  const std::size_t probes = smoke ? 20000 : 2000000;

  std::printf("power-law graph: n=%zu, m=%zu, churn=%zu ops%s\n\n", n,
              edges.size(), churn_ops, smoke ? " (smoke)" : "");

  const MutationNumbers slab_nums = BestOfTwo(
      [&] { return Measure(n, edges, churn_ops, probes); },
      [](const MutationNumbers& m) { return m.churn_eps; });

  TablePrinter table({"layout", "add/sec", "remove/sec", "churn ops/sec",
                      "HasEdge/sec", "sample/sec", "bytes/edge"});
  table.AddRow({"slab", TablePrinter::Fmt(slab_nums.add_eps, 0),
                TablePrinter::Fmt(slab_nums.remove_eps, 0),
                TablePrinter::Fmt(slab_nums.churn_eps, 0),
                TablePrinter::Fmt(slab_nums.probe_qps, 0),
                TablePrinter::Fmt(slab_nums.sample_qps, 0),
                TablePrinter::Fmt(slab_nums.bytes_per_edge, 1)});
  table.Print();

  JsonReport report("graph_mutation");
  report.Add("num_nodes", static_cast<double>(n));
  report.Add("num_edges", static_cast<double>(edges.size()));
  report.Add("churn_ops", static_cast<double>(churn_ops));
  report.Add("smoke", smoke ? 1.0 : 0.0);
  report.Add("slab_add_events_per_sec", slab_nums.add_eps);
  report.Add("slab_remove_events_per_sec", slab_nums.remove_eps);
  report.Add("slab_churn_ops_per_sec", slab_nums.churn_eps);
  report.Add("slab_hasedge_qps", slab_nums.probe_qps);
  report.Add("slab_sample_qps", slab_nums.sample_qps);
  report.Add("slab_bytes_per_edge", slab_nums.bytes_per_edge);
  report.Add("slab_churn_bytes_per_edge", slab_nums.churn_bytes_per_edge);
  // The compact-encoding slab (24-bit size-class-relative twins, 8-byte
  // BlockRefs, quarter-spaced coalescing arena). Same number as
  // slab_bytes_per_edge — the explicit key is the marker CI greps for
  // (tests/snapshot_memory_test.cpp bounds it at <= 1.5x an in-test
  // vector-of-vectors model).
  report.Add("bytes_per_edge_compact", slab_nums.bytes_per_edge);
  report.Add("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  report.WriteTo(JsonPathFromArgs(
      argc, argv, ResultsDir() + "/BENCH_graph_mutation.json"));
  return 0;
}
