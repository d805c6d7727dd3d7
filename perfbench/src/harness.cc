#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "fastppr/core/theory.h"
#include "fastppr/graph/generators.h"
#include "fastppr/util/random.h"

namespace perfbench {

namespace {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Inverse-CDF sampler of Zipf(s) ranks over [0, n).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += std::pow(static_cast<double>(i + 1), -s);
      cdf_[i] = total;
    }
  }
  std::size_t Draw(fastppr::Rng* rng) const {
    const double u = rng->NextDouble() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The churn stream: each event deletes a uniformly random live edge
/// with probability 1/2, otherwise inserts a held-out edge (re-inserting
/// deleted ones once the held-out pool is empty). Every delete names a
/// live edge, so no event of the stream is ever rejected.
class Churn {
 public:
  Churn(std::vector<fastppr::Edge> live, std::vector<fastppr::Edge> pool,
        uint64_t seed)
      : live_(std::move(live)), pool_(std::move(pool)), rng_(seed) {}

  EdgeEvent Next() {
    const bool can_insert = !pool_.empty() || !deleted_.empty();
    if (live_.empty() || (can_insert && !rng_.Bernoulli(0.5))) {
      fastppr::Edge e;
      if (!pool_.empty()) {
        e = pool_.back();
        pool_.pop_back();
      } else {
        e = TakeAt(&deleted_, rng_.UniformIndex(deleted_.size()));
      }
      live_.push_back(e);
      return EdgeEvent{EdgeEvent::Kind::kInsert, e};
    }
    const fastppr::Edge e = TakeAt(&live_, rng_.UniformIndex(live_.size()));
    deleted_.push_back(e);
    return EdgeEvent{EdgeEvent::Kind::kDelete, e};
  }
  std::size_t live() const { return live_.size(); }

 private:
  static fastppr::Edge TakeAt(std::vector<fastppr::Edge>* v, std::size_t i) {
    const fastppr::Edge e = (*v)[i];
    (*v)[i] = v->back();
    v->pop_back();
    return e;
  }

  std::vector<fastppr::Edge> live_;
  std::vector<fastppr::Edge> pool_;
  std::vector<fastppr::Edge> deleted_;
  fastppr::Rng rng_;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Kernel ids of this process's threads.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.push_back(static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10)));
  }
  if (ec) Die("cannot list /proc/self/task: " + ec.message());
  std::sort(ids.begin(), ids.end());
  return ids;
}

uint64_t CpuClockNs(clockid_t clock) {
  struct timespec ts {};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tag = next.fetch_add(1);
  return tag;
}

}  // namespace

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

// ---- configuration --------------------------------------------------

bool Configure(Config* cfg) {
  const double s = cfg->seconds;
  auto per_second = [s](double rate) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(
                                        std::llround(rate * s)));
  };
  if (cfg->small) {
    cfg->nodes = 5000;
    cfg->edge_draws = 50000;
    cfg->probes = 8;
    cfg->setups = 2;
    cfg->drain_windows = 4;
    cfg->replay_windows = 8;
    cfg->direct_calls = 50;
  }
  if (cfg->workload == "ingest") {
    // Closed-loop durable ingest; a short closed-loop read phase after
    // it gives the read-side metrics on the churned snapshot.
    cfg->window_events = cfg->small ? 512 : 4096;
    cfg->windows = cfg->small ? 24 : per_second(10.0);
    cfg->checkpoint_every = cfg->small ? 8 : 64;
    cfg->read_queries = cfg->small ? 400 : per_second(2000.0);
  } else if (cfg->workload == "serve") {
    // Closed-loop personalized reads on one frozen epoch reached through
    // a fixed churn warm-up (the write-side metrics come from it).
    cfg->window_events = cfg->small ? 512 : 4096;
    cfg->windows = cfg->small ? 8 : 32;
    cfg->checkpoint_every = 64;
    cfg->read_queries = cfg->small ? 2000 : per_second(2000.0);
    cfg->zipf_reads = true;
  } else if (cfg->workload == "mixed") {
    // Open loop: 50 ms windows at a fixed 4k events/s plus Poisson
    // personalized queries at a fixed rate. The write rate is about an
    // eighth of the ingest workload's throughput on a quiet host and a
    // third of it at the worst host contention seen (12k events/s), so
    // the writer keeps its schedule: at 8k events/s it fell seconds
    // behind under contention and failed the backlog check. For the
    // same reason checkpoints come every 262144 events, as in ingest,
    // which is longer than the run. At 50 ms a publish consolidation
    // delays ~3 of its 16 windows, so the visibility median stays out
    // of the stall mode.
    cfg->window_period_ns = 50'000'000;
    cfg->window_events = cfg->small ? 250 : 200;
    cfg->windows = cfg->small ? 40 : per_second(20.0);
    cfg->checkpoint_every = cfg->small ? 16 : 262144 / cfg->window_events;
    cfg->query_rate = cfg->small ? 200.0 : 500.0;
  } else {
    return false;
  }
  return true;
}

// ---- inputs ---------------------------------------------------------

Inputs MakeInputs(const Config& cfg) {
  Inputs in;
  fastppr::Rng graph_rng(SubSeed(cfg.seed, 1));
  fastppr::ChungLuOptions gen;
  gen.num_nodes = cfg.nodes;
  gen.num_edges = cfg.edge_draws;
  gen.alpha_in = cfg.alpha_in;
  gen.alpha_out = cfg.alpha_out;
  std::vector<fastppr::Edge> edges = fastppr::ChungLuDirected(gen, &graph_rng);
  graph_rng.Shuffle(&edges);
  const std::size_t pool_size = static_cast<std::size_t>(
      std::llround(cfg.held_out * static_cast<double>(edges.size())));
  std::vector<fastppr::Edge> pool(edges.end() - pool_size, edges.end());
  edges.resize(edges.size() - pool_size);

  in.initial = fastppr::DiGraph(cfg.nodes);
  for (const fastppr::Edge& e : edges) {
    if (!in.initial.AddEdge(e.src, e.dst).ok()) Die("generator edge rejected");
  }

  // Churn windows: the measured write phase, then the drain probe. The
  // lowest out-degree each node reaches decides which nodes may seed.
  std::vector<std::size_t> outdeg(cfg.nodes);
  for (NodeId v = 0; v < cfg.nodes; ++v) outdeg[v] = in.initial.OutDegree(v);
  std::vector<std::size_t> min_outdeg = outdeg;
  Churn churn(std::move(edges), std::move(pool), SubSeed(cfg.seed, 2));
  const std::size_t total_windows = cfg.windows + cfg.drain_windows;
  in.events.reserve(total_windows * cfg.window_events);
  in.bounds.push_back(0);
  for (std::size_t w = 0; w < total_windows; ++w) {
    double expected = 0.0;
    for (std::size_t i = 0; i < cfg.window_events; ++i) {
      const std::size_t m = churn.live();
      const EdgeEvent ev = churn.Next();
      expected +=
          ev.kind == EdgeEvent::Kind::kInsert
              ? fastppr::Theorem4SegmentsPerArrival(cfg.nodes,
                                                    cfg.walks_per_node,
                                                    cfg.epsilon, m + 1) /
                    cfg.epsilon
              : fastppr::Proposition5DeletionWork(
                    cfg.nodes, cfg.walks_per_node, cfg.epsilon, m);
      in.events.push_back(ev);
      std::size_t& d = outdeg[ev.edge.src];
      d = ev.kind == EdgeEvent::Kind::kInsert ? d + 1 : d - 1;
      min_outdeg[ev.edge.src] = std::min(min_outdeg[ev.edge.src], d);
    }
    in.bounds.push_back(in.events.size());
    in.live_after.push_back(churn.live());
    in.theory_steps.push_back(expected);
  }

  // Query seeds: eligible nodes, shuffled; the first `probes` are the
  // precision probes and never appear in traffic.
  fastppr::Rng seed_rng(SubSeed(cfg.seed, 3));
  std::vector<NodeId> eligible;
  for (NodeId v = 0; v < cfg.nodes; ++v) {
    if (min_outdeg[v] >= cfg.min_seed_outdegree) eligible.push_back(v);
  }
  if (eligible.size() < cfg.probes + 100) Die("too few eligible seeds");
  seed_rng.Shuffle(&eligible);
  in.probes.assign(eligible.begin(), eligible.begin() + cfg.probes);
  const std::vector<NodeId> population(eligible.begin() + cfg.probes,
                                       eligible.end());
  in.seed_population = population.size();
  const ZipfSampler zipf(population.size(), cfg.zipf_s);

  std::size_t reads = cfg.read_queries;
  if (cfg.query_rate > 0.0) {
    // Poisson arrivals over the open-loop schedule's span.
    const double span_ns =
        static_cast<double>(cfg.windows) * static_cast<double>(cfg.window_period_ns);
    const double mean_gap_ns = 1e9 / cfg.query_rate;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - seed_rng.NextDouble()) * mean_gap_ns;
      if (t >= span_ns) break;
      in.arrivals_ns.push_back(static_cast<uint64_t>(t));
    }
    reads = in.arrivals_ns.size();
  }
  in.reads.reserve(reads);
  for (std::size_t i = 0; i < reads; ++i) {
    in.reads.push_back(cfg.zipf_reads
                           ? population[zipf.Draw(&seed_rng)]
                           : population[seed_rng.UniformIndex(population.size())]);
    in.read_rng.push_back(seed_rng.NextUint64());
  }
  for (std::size_t i = 0; i < cfg.direct_calls; ++i) {
    in.direct.push_back(population[zipf.Draw(&seed_rng)]);
  }
  return in;
}

// ---- deployment -----------------------------------------------------

Deployment::~Deployment() {
  tier.reset();
  service.reset();
  engine.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

std::unique_ptr<Deployment> SetUp(const Config& cfg, const Inputs& in,
                                  const std::string& dir, Tracer* tracer) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  fastppr::MonteCarloOptions mc;
  mc.walks_per_node = cfg.walks_per_node;
  mc.epsilon = cfg.epsilon;
  mc.seed = SubSeed(cfg.seed, 4);
  fastppr::ShardedOptions sharding;
  sharding.num_shards = cfg.shards;
  sharding.num_threads = cfg.repair_threads;
  fastppr::DurabilityOptions durability;
  durability.directory = dir;
  durability.checkpoint_interval_windows = cfg.checkpoint_every;
  fastppr::serve::ServingTierOptions tier;
  tier.num_workers = cfg.tier_workers;
  // No workload here overloads the tier, so controlled-delay shedding
  // may only mark real failures: its horizon sits above the host stalls
  // (CPU steal bursts of tens of ms) a shared machine imposes.
  tier.queue.target_delay_ns = 50'000'000;
  tier.queue.shed_interval_ns = 200'000'000;

  const int64_t root = tracer->on() ? tracer->Open("setup") : -1;
  Timed(tracer, "setup.engine", root, 0, [&] {
    d->engine = std::make_unique<Engine>(in.initial, mc, sharding);
  });
  fastppr::Status status;
  Timed(tracer, "setup.durability", root, 0,
        [&] { status = d->engine->EnableDurability(durability); });
  if (!status.ok()) Die("EnableDurability: " + status.ToString());
  Timed(tracer, "setup.service", root, 0, [&] {
    d->service = std::make_unique<Service>(d->engine.get());
  });
  const std::vector<pid_t> before = ThreadIds();
  Timed(tracer, "setup.tier", root, 0, [&] {
    d->tier = std::make_unique<Tier>(d->service.get(), tier);
  });
  const std::vector<pid_t> after = ThreadIds();
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(d->tier_tids));
  if (d->tier_tids.size() < cfg.tier_workers) Die("tier threads not found");
  if (root >= 0) tracer->Close(root);
  return d;
}

// ---- statistics ----------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || !std::isfinite(v[hi])) {
    return frac == 0.0 ? v[lo] : std::numeric_limits<double>::infinity();
  }
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---- tracer ---------------------------------------------------------

int64_t Tracer::Add(const std::string& name, uint64_t start_ns,
                    uint64_t end_ns, int64_t parent, uint64_t id) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, id, ThreadTag()});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(const std::string& name) {
  return Add(name, Now(), 0, -1, 0);
}

void Tracer::Close(int64_t index) {
  if (!on_ || index < 0) return;
  const uint64_t t = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::map<std::string, Tracer::LedgerRow> Tracer::Ledger() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, LedgerRow> rows;
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;
    iv.clear();
    for (std::size_t c : children[i]) {
      const uint64_t lo = std::max(spans_[c].start_ns, s.start_ns);
      const uint64_t hi = std::min(spans_[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t run_lo = 0;
    uint64_t run_hi = 0;
    for (const auto& [lo, hi] : iv) {
      if (run_hi <= lo) {
        covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    covered += run_hi - run_lo;
    LedgerRow& row = rows[s.name];
    row.count += 1;
    row.total_ms += Ms(s.end_ns - s.start_ns);
    row.self_ms += Ms(s.end_ns - s.start_ns - covered);
  }
  return rows;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  uint64_t origin = ~uint64_t{0};
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t end = std::max(s.end_ns, s.start_ns);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%lld}}",
                  s.tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(end - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<long long>(s.parent));
    out << "{\"name\":" << JsonString(s.name) << buf
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  return out.good();
}

// ---- report ---------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (const Value& m : metrics_) {
    if (m.name == name) Die("metric reported twice: " + name);
  }
  metrics_.push_back(Value{name, value, unit});
}

void Report::Diag(const std::string& name, double value,
                  const std::string& unit) {
  for (const Value& m : diags_) {
    if (m.name == name) Die("diagnostic reported twice: " + name);
  }
  diags_.push_back(Value{name, value, unit});
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(CheckResult{name, ok, detail});
}

bool Report::all_checks_ok() const {
  for (const CheckResult& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

std::string Report::ToJson() const {
  std::ostringstream out;
  auto values = [&out](const std::vector<Value>& vs) {
    out << "{";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out << (i ? ", " : "") << JsonString(vs[i].name)
          << ": {\"value\": " << JsonNumber(vs[i].value)
          << ", \"unit\": " << JsonString(vs[i].unit) << "}";
    }
    out << "}";
  };
  out << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": ";
  values(metrics_);
  out << ", \"diagnostics\": ";
  values(diags_);
  out << ", \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(info_[i].first) << ": "
        << JsonString(info_[i].second);
  }
  out << "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    out << (i ? ", " : "") << "{\"name\": " << JsonString(checks_[i].name)
        << ", \"ok\": " << (checks_[i].ok ? "true" : "false")
        << ", \"detail\": " << JsonString(checks_[i].detail) << "}";
  }
  out << "]}";
  return out.str();
}

// ---- CPU time -------------------------------------------------------

uint64_t ProcessCpuNs() { return CpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }

uint64_t ThreadCpuNs() { return CpuClockNs(CLOCK_THREAD_CPUTIME_ID); }

uint64_t ThreadCpuNs(pid_t tid) {
  // The kernel's per-thread CPU clock id (what pthread_getcpuclockid
  // returns): ~tid << 3 | CPUCLOCK_PERTHREAD_MASK | CPUCLOCK_SCHED.
  const uint32_t id = (~static_cast<uint32_t>(tid) << 3) | 6u;
  return CpuClockNs(static_cast<clockid_t>(id));
}

uint64_t TierCpuNs(const Deployment& d) {
  uint64_t ns = 0;
  for (pid_t tid : d.tier_tids) ns += ThreadCpuNs(tid);
  return ns;
}

// ---- host noise -----------------------------------------------------

HostNoise HostNoise::Sample() {
  HostNoise h;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  uint64_t field[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (uint64_t& f : field) stat >> f;
    const long hz = sysconf(_SC_CLK_TCK);
    h.steal_s = hz > 0 ? static_cast<double>(field[7]) / static_cast<double>(hz)
                       : 0.0;
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    h.invol_csw = static_cast<double>(usage.ru_nivcsw);
  }
  return h;
}

}  // namespace perfbench
