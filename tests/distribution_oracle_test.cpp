// Distributional oracle for incremental walk maintenance.
//
// Bit-identity tests (flat == S=1, back to back == drained per window)
// only compare two runs of the same repair code; they cannot tell whether
// that code keeps the stored walks distributed as fresh walks on the
// current graph. This file checks the distribution itself, after long
// interleaved insert/delete streams cut into windows of 1 to 4096
// events, on the deployed shape: a 2-shard pipelined ShardedEngine with
// a QueryService attached, for PageRank and SALSA.
//
// The graphs are small (300 nodes, ~4 out-edges per node) and the
// sources skewed, so most windows hit sources with both net removals
// and net insertions, and low-degree sources go from 0 to k out-edges,
// or from k to 0, inside one window.
//
// Under an exact coupling the stored segments are independent walks on
// the final graph, so every expectation and variance below is computed
// exactly from that graph (the walk is a sub-stochastic Markov chain;
// first and second moments of additive functionals solve linear
// fixed-point equations, iterated to 1e-13). Three checks:
//
//  1. Served scores. The merged snapshot counts a QueryService serves
//     (visits for PageRank, authority visits for SALSA), per node,
//     against the exact expectation: z_v = (X_v - pi_v T) / sd_v with
//     the exact variance of X_v - pi_v T. pi is cross-checked against
//     PageRankPowerIteration and SalsaExact.
//  2. Stored next hops. A pooled Pearson chi-square, over every walk
//     state with at least two distinct successors, of the stored
//     next-hop counts against the multiplicity-weighted uniform choice.
//  3. Walk length. Total stored positions against their exact
//     expectation. Self-normalized scores cannot see a drift toward
//     short walks (UpdatePolicy::kRedoFromSource shows one; the last
//     two tests here prove this check catches it for both estimators).
//
// Seeds are fixed, so each run is deterministic; the false-alarm rates
// stated at each assertion are over the choice of seed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/baseline/power_iteration.h"
#include "fastppr/baseline/salsa_exact.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/csr_graph.h"
#include "fastppr/util/random.h"

namespace fastppr {
namespace {

constexpr std::size_t kNodes = 300;
constexpr std::size_t kWalksPerNode = 16;
constexpr double kEps = 0.2;
/// Critical value of every two-sided z test below. Under the normal
/// approximation P(|Z| > 4.75) = 2.0e-6; with a Bonferroni union over
/// the 300 nodes of check 1 a run false-alarms with probability about
/// 6e-4 (per-node counts with means near 16 have Poisson-like upper
/// tails, which at worst raises this to about 3e-3).
constexpr double kZ = 4.75;

/// One event stream: a bootstrap graph plus windows of mixed events.
struct Stream {
  DiGraph initial{kNodes};
  std::vector<std::vector<EdgeEvent>> windows;
};

/// Interleaved churn: each event deletes a uniformly random live edge
/// copy with probability 1/2, else inserts an edge (10% of inserts add
/// a parallel copy of a live edge). Sources are skewed toward low ids
/// (min of two uniforms), so high-id sources keep 0-3 out-edges and
/// empty and refill within one window. Window sizes cycle from 1 to
/// 4096 and the stream ends with a 4096-event window.
Stream MakeStream(uint64_t seed) {
  Rng rng(seed);
  auto draw_edge = [&]() {
    const NodeId u = static_cast<NodeId>(
        std::min(rng.UniformIndex(kNodes), rng.UniformIndex(kNodes)));
    NodeId v = static_cast<NodeId>(rng.UniformIndex(kNodes));
    if (v == u) v = static_cast<NodeId>((v + 1) % kNodes);
    return Edge{u, v};
  };
  Stream out;
  std::vector<Edge> live;
  for (std::size_t i = 0; i < 4 * kNodes; ++i) {
    const Edge e = draw_edge();
    EXPECT_TRUE(out.initial.AddEdge(e.src, e.dst).ok());
    live.push_back(e);
  }
  const std::size_t sizes[] = {1,   4096, 3, 1024, 64,   200, 4096,
                               7,   512,  1, 2048, 4096, 31,  4096};
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t size : sizes) {
      std::vector<EdgeEvent> window;
      window.reserve(size);
      for (std::size_t i = 0; i < size; ++i) {
        if (!live.empty() && rng.Bernoulli(0.5)) {
          const std::size_t at = rng.UniformIndex(live.size());
          window.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, live[at]});
          live[at] = live.back();
          live.pop_back();
        } else {
          const Edge e = (!live.empty() && rng.Bernoulli(0.1))
                             ? live[rng.UniformIndex(live.size())]
                             : draw_edge();
          window.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
          live.push_back(e);
        }
      }
      out.windows.push_back(std::move(window));
    }
  }
  return out;
}

/// The stored-walk process on the final graph as a sub-stochastic
/// Markov chain over walk states: from state i the walk continues with
/// probability cont[i] to a successor chosen uniformly over succ[i]
/// (one entry per parallel slot), and stops otherwise.
struct Chain {
  std::vector<std::vector<uint32_t>> succ;
  std::vector<double> cont;
  /// Walk-start states (one entry per R walks starting there).
  std::vector<uint32_t> starts;
  /// States whose visits the served score counts (the total T).
  std::vector<uint8_t> counted;

  std::size_t size() const { return succ.size(); }

  /// out[i] = cont[i] * mean over succ[i] of x.
  void Step(const std::vector<double>& x, std::vector<double>* out) const {
    for (std::size_t i = 0; i < size(); ++i) {
      double acc = 0.0;
      for (const uint32_t j : succ[i]) acc += x[j];
      (*out)[i] = succ[i].empty()
                      ? 0.0
                      : cont[i] * acc / static_cast<double>(succ[i].size());
    }
  }

  /// Solves x = b + Step(x) by fixed-point iteration (contracting: every
  /// two steps carry a factor 1 - eps).
  std::vector<double> Solve(const std::vector<double>& b) const {
    std::vector<double> x = b;
    std::vector<double> mx(size());
    for (int iter = 0; iter < 10000; ++iter) {
      Step(x, &mx);
      double diff = 0.0;
      for (std::size_t i = 0; i < size(); ++i) {
        const double next = b[i] + mx[i];
        diff = std::max(diff, std::abs(next - x[i]));
        x[i] = next;
      }
      if (diff < 1e-13) return x;
    }
    ADD_FAILURE() << "moment iteration did not converge";
    return x;
  }

  /// Expected visits to every state, summed over one walk per start
  /// state: o = s + M^T o.
  std::vector<double> Occupation(const std::vector<uint32_t>& from) const {
    std::vector<double> s(size(), 0.0);
    for (const uint32_t i : from) s[i] += 1.0;
    std::vector<double> o = s;
    std::vector<double> next(size());
    for (int iter = 0; iter < 10000; ++iter) {
      next = s;
      for (std::size_t i = 0; i < size(); ++i) {
        if (succ[i].empty() || o[i] == 0.0) continue;
        const double share =
            cont[i] * o[i] / static_cast<double>(succ[i].size());
        for (const uint32_t j : succ[i]) next[j] += share;
      }
      double diff = 0.0;
      for (std::size_t i = 0; i < size(); ++i) {
        diff = std::max(diff, std::abs(next[i] - o[i]));
      }
      o.swap(next);
      if (diff < 1e-13) return o;
    }
    ADD_FAILURE() << "occupation iteration did not converge";
    return o;
  }
};

/// PageRank: state = node; every position counts.
Chain PageRankChain(const CsrGraph& g) {
  Chain c;
  const std::size_t n = g.num_nodes();
  c.succ.resize(n);
  c.cont.assign(n, 0.0);
  c.counted.assign(n, 1);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId x : g.OutNeighbors(v)) c.succ[v].push_back(x);
    if (!c.succ[v].empty()) c.cont[v] = 1.0 - kEps;
    c.starts.push_back(v);
  }
  return c;
}

/// SALSA: state v = node v about to step forward (hub side), n + v =
/// about to step backward (authority side). Resets are drawn before
/// forward steps only; R walks start in each role at every node; the
/// served score counts authority-side positions.
Chain SalsaChain(const CsrGraph& g) {
  Chain c;
  const std::size_t n = g.num_nodes();
  c.succ.resize(2 * n);
  c.cont.assign(2 * n, 0.0);
  c.counted.assign(2 * n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId x : g.OutNeighbors(v)) {
      c.succ[v].push_back(static_cast<uint32_t>(n + x));
    }
    for (const NodeId x : g.InNeighbors(v)) c.succ[n + v].push_back(x);
    if (!c.succ[v].empty()) c.cont[v] = 1.0 - kEps;
    if (!c.succ[n + v].empty()) c.cont[n + v] = 1.0;
    c.counted[n + v] = 1;
    c.starts.push_back(v);
    c.starts.push_back(static_cast<uint32_t>(n + v));
  }
  return c;
}

/// Check 1's reference: the exact expected served score pi_v =
/// E[X_v] / E[T], and the exact sd of X_v - pi_v T over the store's
/// R walks per start state. `node_state[v]` is v's counted state.
struct ScoreReference {
  std::vector<double> pi;
  std::vector<double> sd;
};

ScoreReference ExactScores(const Chain& c,
                           const std::vector<uint32_t>& node_state) {
  const std::vector<double> occ = c.Occupation(c.starts);
  double counted_total = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.counted[i]) counted_total += occ[i];
  }
  ScoreReference ref;
  const std::size_t n = node_state.size();
  ref.pi.resize(n);
  ref.sd.resize(n);
  std::vector<double> r(c.size()), mg(c.size()), b(c.size());
  for (std::size_t v = 0; v < n; ++v) {
    const double pi = occ[node_state[v]] / counted_total;
    ref.pi[v] = pi;
    // Per-walk Y = sum over positions of r(state); g = E[Y | start],
    // h = E[Y^2 | start]: g = r + M g, h = r^2 + 2 r (M g) + M h.
    for (std::size_t i = 0; i < c.size(); ++i) {
      r[i] = (i == node_state[v] ? 1.0 : 0.0) - (c.counted[i] ? pi : 0.0);
    }
    const std::vector<double> g = c.Solve(r);
    c.Step(g, &mg);
    for (std::size_t i = 0; i < c.size(); ++i) {
      b[i] = r[i] * r[i] + 2.0 * r[i] * mg[i];
    }
    const std::vector<double> h = c.Solve(b);
    double var = 0.0;
    for (const uint32_t s : c.starts) var += h[s] - g[s] * g[s];
    ref.sd[v] = std::sqrt(static_cast<double>(kWalksPerNode) * var);
  }
  return ref;
}

/// Largest |z| of check 1 over all nodes.
double MaxScoreZ(const std::vector<int64_t>& counts, int64_t total,
                 const ScoreReference& ref) {
  double worst = 0.0;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    const double dev = static_cast<double>(counts[v]) -
                       ref.pi[v] * static_cast<double>(total);
    worst = std::max(worst, std::abs(dev) / ref.sd[v]);
  }
  return worst;
}

/// Check 3: z of the total stored positions against E[T] = R * sum over
/// start states of E[L], Var[T] = R * sum of Var[L] (L = positions of
/// one walk; F = E[L] = 1 + M F, F2 = E[L^2] = 1 + M (2F + F2)).
double LengthZ(const Chain& c, int64_t stored_positions) {
  const std::vector<double> ones(c.size(), 1.0);
  const std::vector<double> f = c.Solve(ones);
  std::vector<double> mf(c.size()), b(c.size());
  c.Step(f, &mf);
  for (std::size_t i = 0; i < c.size(); ++i) b[i] = 1.0 + 2.0 * mf[i];
  const std::vector<double> f2 = c.Solve(b);
  double mean = 0.0, var = 0.0;
  for (const uint32_t s : c.starts) {
    mean += f[s];
    var += f2[s] - f[s] * f[s];
  }
  mean *= static_cast<double>(kWalksPerNode);
  var *= static_cast<double>(kWalksPerNode);
  return (static_cast<double>(stored_positions) - mean) / std::sqrt(var);
}

/// Check 2: pooled Pearson chi-square of stored next-hop counts.
/// `hops[i]` lists the successor state of every stored step taken from
/// state i. z = (X^2 - dof) / sd, with the exact multinomial variance of
/// X^2 (2(k-1) + (sum 1/p - k^2 - 2k + 2) / W per state).
struct HopStat {
  double z = 0.0;
  double dof = 0.0;
};

HopStat HopChiSquareZ(const Chain& c,
                      const std::vector<std::vector<uint32_t>>& hops) {
  double stat = 0.0, dof = 0.0, var = 0.0;
  std::vector<std::pair<uint32_t, double>> cells;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const std::size_t w = hops[i].size();
    if (w == 0) continue;
    cells.clear();
    for (const uint32_t j : c.succ[i]) {
      auto it = std::find_if(cells.begin(), cells.end(),
                             [&](const auto& cell) { return cell.first == j; });
      if (it == cells.end()) {
        cells.emplace_back(j, 1.0);
      } else {
        it->second += 1.0;
      }
    }
    const double k = static_cast<double>(cells.size());
    if (cells.size() < 2) continue;
    const double d = static_cast<double>(c.succ[i].size());
    double inv_p = 0.0;
    for (const auto& [j, mult] : cells) {
      const double expect = static_cast<double>(w) * mult / d;
      const double observed = static_cast<double>(
          std::count(hops[i].begin(), hops[i].end(), j));
      stat += (observed - expect) * (observed - expect) / expect;
      inv_p += d / mult;
    }
    dof += k - 1.0;
    var += 2.0 * (k - 1.0) +
           (inv_p - k * k - 2.0 * k + 2.0) / static_cast<double>(w);
  }
  if (dof == 0.0) return HopStat{};
  return HopStat{(stat - dof) / std::sqrt(var), dof};
}

MonteCarloOptions OracleOptions(uint64_t seed, UpdatePolicy policy) {
  MonteCarloOptions o;
  o.walks_per_node = kWalksPerNode;
  o.epsilon = kEps;
  o.seed = seed;
  o.update_policy = policy;
  return o;
}

ShardedOptions TwoShardsPipelined() {
  ShardedOptions s;
  s.num_shards = 2;
  s.num_threads = 2;
  return s;
}

/// Streams every window through the service and returns the quiesced,
/// single-epoch served counts.
template <typename Engine>
std::vector<int64_t> IngestAndServe(const Stream& stream,
                                    ShardedEngine<Engine>* engine,
                                    int64_t* total) {
  QueryService<Engine> service(engine);
  for (const auto& window : stream.windows) {
    EXPECT_TRUE(service.Ingest(window).ok());
  }
  service.Quiesce();
  engine->CheckConsistency();
  SnapshotInfo info;
  std::vector<int64_t> counts = service.SnapshotCounts(total, &info);
  EXPECT_EQ(info.min_epoch, info.max_epoch);
  EXPECT_EQ(info.max_epoch, stream.windows.size());
  return counts;
}

struct OracleResult {
  double score_z = 0.0;
  HopStat hops;
  double length_z = 0.0;

  /// The margins, for the test log.
  void Print(const char* name) const {
    std::printf("%s: max score |z| %.2f, hop chi-square z %.2f (%.0f dof), "
                "length z %.2f\n",
                name, score_z, hops.z, hops.dof, length_z);
  }
};

OracleResult RunPageRank(uint64_t seed, UpdatePolicy policy) {
  const Stream stream = MakeStream(seed);
  ShardedEngine<IncrementalPageRank> engine(
      stream.initial, OracleOptions(seed + 1, policy), TwoShardsPipelined());
  int64_t total = 0;
  const std::vector<int64_t> counts =
      IngestAndServe(stream, &engine, &total);

  const CsrGraph g = CsrGraph::FromDiGraph(engine.graph());
  const Chain chain = PageRankChain(g);
  std::vector<uint32_t> node_state(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) node_state[v] = v;
  const ScoreReference ref = ExactScores(chain, node_state);

  // The exact expectation is the power-iteration baseline (dangling
  // mass to the uniform reset is the renewal of a stopped walk).
  PowerIterationOptions pi_opts;
  pi_opts.epsilon = kEps;
  const PowerIterationResult power = PageRankPowerIteration(g, pi_opts);
  for (NodeId v = 0; v < kNodes; ++v) {
    EXPECT_NEAR(ref.pi[v], power.scores[v], 1e-9) << "node " << v;
  }

  std::vector<std::vector<uint32_t>> hops(chain.size());
  int64_t positions = 0;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    const WalkStore& store = engine.shard(s).walk_store();
    positions += store.TotalVisits();
    for (NodeId u = 0; u < kNodes; ++u) {
      if (!store.OwnsSource(u)) continue;
      for (std::size_t k = 0; k < store.walks_per_node(); ++k) {
        const auto seg = store.GetSegment(u, k);
        for (std::size_t p = 0; p + 1 < seg.size(); ++p) {
          hops[seg.node(p)].push_back(seg.node(p + 1));
        }
      }
    }
  }
  EXPECT_EQ(positions, total);

  OracleResult out;
  out.score_z = MaxScoreZ(counts, total, ref);
  out.hops = HopChiSquareZ(chain, hops);
  out.length_z = LengthZ(chain, positions);
  return out;
}

OracleResult RunSalsa(uint64_t seed, UpdatePolicy policy) {
  const Stream stream = MakeStream(seed);
  ShardedEngine<IncrementalSalsa> engine(
      stream.initial, OracleOptions(seed + 1, policy), TwoShardsPipelined());
  int64_t total = 0;
  const std::vector<int64_t> counts =
      IngestAndServe(stream, &engine, &total);

  const CsrGraph g = CsrGraph::FromDiGraph(engine.graph());
  const Chain chain = SalsaChain(g);
  std::vector<uint32_t> node_state(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    node_state[v] = static_cast<uint32_t>(kNodes + v);
  }
  const ScoreReference ref = ExactScores(chain, node_state);

  // SalsaExact restarts in hub role only, so it is the authority
  // occupation of the forward-start walks alone; the store also keeps
  // R backward-start walks per node, which the served reference adds.
  SalsaOptions salsa_opts;
  salsa_opts.epsilon = kEps;
  const SalsaResult exact = SalsaExact(g, salsa_opts);
  std::vector<uint32_t> hub_starts;
  for (NodeId v = 0; v < kNodes; ++v) hub_starts.push_back(v);
  const std::vector<double> hub_occ = chain.Occupation(hub_starts);
  double auth_total = 0.0;
  for (NodeId v = 0; v < kNodes; ++v) auth_total += hub_occ[kNodes + v];
  for (NodeId v = 0; v < kNodes; ++v) {
    EXPECT_NEAR(hub_occ[kNodes + v] / auth_total, exact.authority[v], 1e-9)
        << "node " << v;
  }

  std::vector<std::vector<uint32_t>> hops(chain.size());
  int64_t positions = 0;
  int64_t auth_positions = 0;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    const SalsaWalkStore& store = engine.shard(s).walk_store();
    const std::size_t R = store.walks_per_node();
    positions += store.TotalVisits(0) + store.TotalVisits(1);
    auth_positions += store.TotalVisits(1);
    for (NodeId u = 0; u < kNodes; ++u) {
      if (!store.OwnsSource(u)) continue;
      for (std::size_t k = 0; k < store.segments_per_node(); ++k) {
        const auto seg = store.GetSegment(u, k);
        for (std::size_t p = 0; p + 1 < seg.size(); ++p) {
          const bool forward = (k / R + p) % 2 == 0;
          const uint32_t from = forward ? seg.node(p) : kNodes + seg.node(p);
          const uint32_t to =
              forward ? kNodes + seg.node(p + 1) : seg.node(p + 1);
          hops[from].push_back(to);
        }
      }
    }
  }
  EXPECT_EQ(auth_positions, total);

  OracleResult out;
  out.score_z = MaxScoreZ(counts, total, ref);
  out.hops = HopChiSquareZ(chain, hops);
  out.length_z = LengthZ(chain, positions);
  return out;
}

TEST(DistributionOracleTest, PipelinedPageRankMatchesFreshWalks) {
  const OracleResult r =
      RunPageRank(/*seed=*/1011, UpdatePolicy::kRerouteFromVisit);
  r.Print("pagerank");
  // Check 1: false alarm ~6e-4 per run (Bonferroni over 300 nodes).
  EXPECT_LT(r.score_z, kZ);
  // Check 2: one-sided normal approximation of a pooled chi-square with
  // about a thousand degrees of freedom; false alarm ~1e-6.
  EXPECT_GT(r.hops.dof, 500.0);
  EXPECT_LT(r.hops.z, kZ);
  // Check 3: two-sided; false alarm 2e-6.
  EXPECT_LT(std::abs(r.length_z), kZ);
}

TEST(DistributionOracleTest, PipelinedSalsaMatchesFreshWalks) {
  const OracleResult r =
      RunSalsa(/*seed=*/2022, UpdatePolicy::kRerouteFromVisit);
  r.Print("salsa");
  // Same three checks and false-alarm rates as the PageRank test.
  EXPECT_LT(r.score_z, kZ);
  EXPECT_GT(r.hops.dof, 500.0);
  EXPECT_LT(r.hops.z, kZ);
  EXPECT_LT(std::abs(r.length_z), kZ);
}

// Positive controls for check 3: kRedoFromSource re-rolls a repaired
// segment's reset draws, and a segment that comes out as its bare source
// (reset before the first step) has no step visit to select it again.
// Over this stream such segments pile up, and the stored walk length
// falls tens of standard deviations below its expectation — for SALSA
// too, whose store serves the policy through the same repair branch.
TEST(DistributionOracleTest, LengthCheckCatchesRedoFromSourceDrift) {
  const OracleResult r =
      RunPageRank(/*seed=*/1011, UpdatePolicy::kRedoFromSource);
  r.Print("pagerank, kRedoFromSource");
  EXPECT_LT(r.length_z, -kZ);
}

TEST(DistributionOracleTest, LengthCheckCatchesSalsaRedoFromSourceDrift) {
  const OracleResult r =
      RunSalsa(/*seed=*/2022, UpdatePolicy::kRedoFromSource);
  r.Print("salsa, kRedoFromSource");
  EXPECT_LT(r.length_z, -kZ);
}

}  // namespace
}  // namespace fastppr
