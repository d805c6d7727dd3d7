#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the end-to-end benchmark: run configuration, seeded
// input generation, the deployment every workload runs against, the
// benchmark-side span recorder, and the run report.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/digraph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/obs/latency_histogram.h"
#include "fastppr/serve/serving_tier.h"

namespace perfbench {

using fastppr::EdgeEvent;
using fastppr::NodeId;
using Engine = fastppr::ShardedEngine<fastppr::IncrementalPageRank>;
using Service = fastppr::QueryService<fastppr::IncrementalPageRank>;
using Tier = fastppr::serve::ServingTier<fastppr::IncrementalPageRank>;

inline uint64_t Now() { return fastppr::obs::NowNanos(); }
inline double Ms(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Everything a run does, fixed before set-up. Work is a fixed count
/// derived from --seconds (never from a measured rate), so every run of
/// a workload does the same events and queries.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool small = false;       ///< self-test size
  std::string work_dir;     ///< durability directories and the trace file

  // Deployment: identical in every workload.
  std::size_t nodes = 100000;
  std::size_t edge_draws = 1000000;
  double alpha_in = 0.76;
  double alpha_out = 0.55;
  double held_out = 0.2;    ///< share of generated edges kept for inserts
  std::size_t walks_per_node = 10;
  double epsilon = 0.2;
  std::size_t shards = 2;
  std::size_t repair_threads = 2;
  std::size_t tier_workers = 2;
  std::size_t setups = 3;   ///< set-ups per untraced run (setup_s median)

  // Query traffic.
  std::size_t k = 10;
  uint64_t walk_length = 2000;
  double zipf_s = 0.6;
  /// Seeds are nodes that keep at least this many out-edges through the
  /// whole generated stream, so no answer is empty for lack of a walk.
  std::size_t min_seed_outdegree = 3;
  std::size_t probes = 64;  ///< precision_at_10 probe seeds
  double precision_floor = 0.5;

  // Write traffic, per workload.
  std::size_t window_events = 4096;
  std::size_t windows = 0;          ///< measured write windows
  uint64_t checkpoint_every = 64;   ///< windows between checkpoints
  uint64_t window_period_ns = 0;    ///< mixed: open-loop window period
  // Read traffic, per workload.
  std::size_t read_queries = 0;     ///< closed-loop queries
  /// Closed-loop clients: twice the tier's workers, so a worker finds
  /// the next request queued instead of sleeping between requests.
  /// With one client per worker each request woke an idle worker, and
  /// the run's CPU per query and throughput moved 10% and 33% when
  /// another process kept the remaining CPUs busy (6% and 4% with two
  /// clients per worker).
  std::size_t read_clients = 4;
  bool zipf_reads = false;          ///< serve: Zipf seeds, else uniform
  double query_rate = 0.0;          ///< mixed: Poisson queries per second

  // Traced run only.
  std::size_t drain_windows = 16;
  std::size_t replay_windows = 48;
  std::size_t direct_calls = 400;
};

/// Fills the per-workload work sizes. Returns false for an unknown
/// workload name.
bool Configure(Config* cfg);

/// Seeded inputs, generated before set-up so the program receives only
/// generated data. Windows [0, cfg.windows) are the measured write
/// phase (the warm-up for `serve`); the next cfg.drain_windows are the
/// traced run's drain probe.
struct Inputs {
  fastppr::DiGraph initial;
  std::vector<EdgeEvent> events;
  std::vector<std::size_t> bounds;       ///< window w = [bounds[w], bounds[w+1])
  std::vector<std::size_t> live_after;   ///< live edges after window w
  std::vector<double> theory_steps;      ///< Theorem 4 / Prop. 5 expectation
  std::vector<NodeId> reads;             ///< read-phase seeds, submit order
  std::vector<uint64_t> read_rng;
  std::vector<uint64_t> arrivals_ns;     ///< mixed: query schedule offsets
  std::vector<NodeId> probes;            ///< precision probes (never read)
  std::vector<NodeId> direct;            ///< traced direct-call seeds (Zipf)
  std::size_t seed_population = 0;

  std::span<const EdgeEvent> Window(std::size_t w) const {
    return {events.data() + bounds[w], bounds[w + 1] - bounds[w]};
  }
  std::size_t EventsIn(std::size_t lo, std::size_t hi) const {
    return bounds[hi] - bounds[lo];
  }
};

Inputs MakeInputs(const Config& cfg);

/// Reports an unexpected failure of the program or the host and exits
/// with status 2 (no report is written).
[[noreturn]] void Die(const std::string& what);

/// Engine + durability + query service + serving tier, torn down in
/// reverse order; the durability directory is removed with it.
struct Deployment {
  std::string dir;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Service> service;
  std::unique_ptr<Tier> tier;
  /// Kernel thread ids of the threads the tier started (its workers).
  std::vector<pid_t> tier_tids;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment();
};

class Tracer;

/// Builds a deployment over `in.initial` into a fresh directory.
std::unique_ptr<Deployment> SetUp(const Config& cfg, const Inputs& in,
                                  const std::string& dir, Tracer* tracer);

// ---- statistics ----------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); +inf samples (failed
/// operations) sort last. Returns NaN for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

// ---- spans ----------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are recorded by
/// the benchmark around its calls into the program; nothing inside the
/// program is instrumented. A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;
    uint64_t id = 0;   ///< window or request id
    uint32_t tid = 0;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Records a completed span; returns its index (a parent handle).
  int64_t Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent = -1, uint64_t id = 0);
  /// Opens a span whose children are recorded before it ends.
  int64_t Open(const std::string& name);
  void Close(int64_t index);

  /// Per name: count, total and self time (duration minus the union of
  /// its children's intervals).
  struct LedgerRow {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, LedgerRow> Ledger() const;
  /// chrome://tracing "trace event" JSON, one complete event per span.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times `fn` as a span when tracing; always returns its duration (ns).
template <typename Fn>
uint64_t Timed(Tracer* tracer, const char* name, int64_t parent, uint64_t id,
               Fn&& fn) {
  const uint64_t t0 = Now();
  fn();
  const uint64_t t1 = Now();
  if (tracer != nullptr && tracer->on()) {
    tracer->Add(name, t0, t1, parent, id);
  }
  return t1 - t0;
}

// ---- report ---------------------------------------------------------

/// The run's machine-readable result. A metric name may be set once;
/// a second Metric() with the same name is a bug and aborts.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Diag(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  void Check(const std::string& name, bool ok, const std::string& detail);
  bool all_checks_ok() const;
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::string ToJson() const;

 private:
  struct Value {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Value> metrics_;
  std::vector<Value> diags_;
  std::vector<std::pair<std::string, std::string>> info_;
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<CheckResult> checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- CPU time -------------------------------------------------------

/// CPU time, in ns, of this process, of the calling thread, and of one
/// thread of this process by kernel id (0 once it has exited). The
/// kernel leaves out time the host took the CPU away (paravirtual steal
/// accounting) and time a thread waited for a CPU, so these move less
/// with the host's load than wall-clock time; memory and cache
/// contention from other tenants still shows in them.
uint64_t ProcessCpuNs();
uint64_t ThreadCpuNs();
uint64_t ThreadCpuNs(pid_t tid);
/// CPU time of the deployment's serving tier threads.
uint64_t TierCpuNs(const Deployment& d);

// ---- host noise -----------------------------------------------------

/// Stolen CPU time (/proc/stat, all CPUs) and this process's involuntary
/// context switches, sampled at the start and end of a measured phase.
struct HostNoise {
  double steal_s = 0.0;
  double invol_csw = 0.0;
  static HostNoise Sample();
};

// ---- workloads (workloads.cc) ----------------------------------------

/// Runs `cfg.workload` end to end and fills the report: end-to-end
/// metrics when untraced, per-layer metrics and spans when traced.
void RunWorkload(const Config& cfg, const Inputs& in, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
