// The three workloads, each a fixed amount of work against the public
// QueryService / ServingTier entry points:
//
//  * ingest — why: nearly all time goes to the WAL, graph mutation, walk
//    repair (Theorem 4 / Proposition 5 work), the pipeline and
//    publishing, none to serving. A closed loop with one writer sends
//    4096-event churn windows (inserts and deletes interleaved in arrival
//    order) through Ingest, then Quiesce. A short closed-loop read phase
//    on the churned snapshot follows, for the read-side metrics.
//  * serve — why: all time goes to the serving tier (admission, batcher,
//    result cache) and the frozen-view walk, none to ingest. Four
//    clients each wait for their own reply (Config::read_clients);
//    seeds follow Zipf(0.6), so about a sixth of requests hit the
//    result cache and the median stays a walk. The snapshot reaches
//    its epoch through a fixed churn warm-up and a Quiesce inside
//    set-up (the write-side metrics come from it).
//  * mixed — why: the same layers working together. An open-loop writer
//    submits a 50 ms window at a fixed 4k events/s while uniform-seed
//    queries arrive as a Poisson stream at a fixed rate, all timed from
//    their scheduled instants. Publishes rotate under pinned readers,
//    repair competes with walks for cores, and the per-window epoch
//    rotation means the result cache is bypassed. The only workload
//    that measures freshness under concurrent reads.
//
// Every workload reports the program's CPU time per event (its write
// phase) and per query (its read phase) as its timed end-to-end
// metrics; wall-clock throughput and latency are printed beside them
// (see EndToEnd).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "fastppr/baseline/power_iteration.h"
#include "fastppr/graph/csr_graph.h"
#include "phases.h"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

fastppr::serve::Request MakeRequest(const Config& cfg, NodeId seed,
                                    uint64_t rng_seed) {
  fastppr::serve::Request req;
  req.cls = fastppr::serve::QueryClass::kPersonalized;
  req.node = seed;
  req.k = cfg.k;
  req.walk_length = cfg.walk_length;
  req.exclude_friends = true;
  req.rng_seed = rng_seed;
  return req;
}

/// Why an OK answer is not a full-fidelity, single-epoch, non-empty
/// one; empty when it is.
std::string AnswerDefect(const fastppr::serve::Response& resp) {
  if (resp.snapshot.min_epoch != resp.snapshot.max_epoch) {
    return "answer spans epochs " + std::to_string(resp.snapshot.min_epoch) +
           ".." + std::to_string(resp.snapshot.max_epoch);
  }
  if (resp.degraded()) {
    return std::string("degraded answer: ") +
           fastppr::serve::DegradeLevelName(resp.degrade);
  }
  if (resp.ranked.empty()) return "empty answer";
  return "";
}

/// One personalized request through the tier, answered synchronously;
/// `done_ns` (optional) receives the instant on_done ran.
fastppr::serve::Response Ask(const Config& cfg, Deployment* d, NodeId seed,
                             uint64_t rng_seed, uint64_t* done_ns = nullptr) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  fastppr::serve::Response out;
  fastppr::serve::Request req = MakeRequest(cfg, seed, rng_seed);
  req.on_done = [&](const fastppr::serve::Response& resp) {
    const uint64_t t = Now();
    std::lock_guard<std::mutex> lock(mu);
    if (done_ns != nullptr) *done_ns = t;
    out = resp;
    done = true;
    // Notified under the lock: the waiter cannot return (and destroy
    // the condition variable) before this call finishes.
    cv.notify_one();
  };
  d->tier->Submit(std::move(req));
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return out;
}

/// Tracks which windows' epochs the frozen view has reached. One thread
/// polls; any thread may read visible().
class Visibility {
 public:
  Visibility(const Service* service, std::size_t windows)
      : service_(service),
        base_(service->frozen_epoch()),
        stamp_ns_(windows, 0) {}

  void Poll() {
    const uint64_t epoch = service_->frozen_epoch();
    const uint64_t t = Now();
    while (next_ < stamp_ns_.size() && base_ + next_ + 1 <= epoch) {
      stamp_ns_[next_++] = t;
    }
    visible_.store(next_, std::memory_order_release);
  }
  std::size_t visible() const {
    return visible_.load(std::memory_order_acquire);
  }
  /// Valid once the polling thread has stopped.
  uint64_t stamp_ns(std::size_t w) const { return stamp_ns_[w]; }

 private:
  const Service* service_;
  const uint64_t base_;
  std::vector<uint64_t> stamp_ns_;
  std::size_t next_ = 0;
  std::atomic<std::size_t> visible_{0};
};

/// Polls a Visibility on its own thread until stopped.
class VisibilityPoller {
 public:
  explicit VisibilityPoller(Visibility* vis)
      : thread_([this, vis] {
          const uint64_t cpu0 = ThreadCpuNs();
          while (!stop_.load(std::memory_order_acquire)) {
            vis->Poll();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          vis->Poll();
          cpu_ns_ = ThreadCpuNs() - cpu0;
        }) {}
  ~VisibilityPoller() { Stop(); }
  VisibilityPoller(const VisibilityPoller&) = delete;
  VisibilityPoller& operator=(const VisibilityPoller&) = delete;

  /// Stops polling; returns the poller's own CPU time.
  uint64_t Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_release);
      thread_.join();
    }
    return cpu_ns_;
  }

 private:
  std::atomic<bool> stop_{false};
  uint64_t cpu_ns_ = 0;
  std::thread thread_;
};

/// `total` less `others`, never below zero.
uint64_t Less(uint64_t total, uint64_t others) {
  return total > others ? total - others : 0;
}

void SleepUntil(uint64_t due_ns) {
  for (;;) {
    const uint64_t now = Now();
    if (now >= due_ns) return;
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

/// Median of the second half's samples against the first half's: the
/// backlog grew if the later median exceeds twice the earlier plus
/// `slack`. Medians ignore the bursts a stall causes in either half.
bool BacklogGrew(const std::vector<double>& samples, double slack) {
  const std::size_t half = samples.size() / 2;
  if (half == 0) return false;
  const std::vector<double> early(samples.begin(), samples.begin() + half);
  const std::vector<double> late(samples.begin() + half, samples.end());
  return Median(late) > 2.0 * Median(early) + slack;
}

struct OpenLoopResult {
  WriteResult write;
  ReadResult read;
  std::vector<double> window_backlog;  ///< due, not visible, per window
  std::vector<double> query_backlog;   ///< submitted, unresolved
  double end_window_backlog = 0.0;
  double end_query_backlog = 0.0;
};

/// The mixed workload: this thread writes on the window schedule, a
/// pacer thread submits queries on the Poisson schedule and a poller
/// observes visibility.
OpenLoopResult OpenLoop(const Config& cfg, Deployment* d, const Inputs& in,
                        Tracer* tracer, int64_t parent) {
  OpenLoopResult r;
  const std::size_t windows = cfg.windows;
  const std::size_t queries = in.reads.size();
  Visibility vis(d->service.get(), windows);
  std::vector<uint64_t> done_ns(queries, 0);
  std::vector<fastppr::serve::Response> answers(queries);
  std::vector<uint64_t> submit_ns(queries, 0);
  std::atomic<uint64_t> dispatched{0};
  std::atomic<uint64_t> resolved{0};
  uint64_t pacer_cpu_ns = 0;

  VisibilityPoller poller(&vis);
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t tier0 = TierCpuNs(*d);
  const uint64_t origin = Now() + 20'000'000;
  std::thread pacer([&] {
    const uint64_t own0 = ThreadCpuNs();
    for (std::size_t q = 0; q < queries; ++q) {
      const uint64_t sched = origin + in.arrivals_ns[q];
      SleepUntil(sched);
      fastppr::serve::Request req =
          MakeRequest(cfg, in.reads[q], in.read_rng[q]);
      req.arrival_ns = sched;
      req.on_done = [&, q](const fastppr::serve::Response& resp) {
        done_ns[q] = Now();
        answers[q] = resp;
        resolved.fetch_add(1, std::memory_order_release);
      };
      submit_ns[q] = Now();
      dispatched.fetch_add(1, std::memory_order_relaxed);
      d->tier->Submit(std::move(req));
    }
    pacer_cpu_ns = ThreadCpuNs() - own0;
  });

  std::vector<uint64_t> due(windows);
  std::vector<uint64_t> sent(windows);
  std::vector<uint64_t> acked(windows);
  std::vector<bool> ok(windows, false);
  for (std::size_t w = 0; w < windows; ++w) {
    due[w] = origin + (w + 1) * cfg.window_period_ns;
    SleepUntil(due[w]);
    // Windows due by now but not yet visible: counts the windows a
    // writer that cannot keep up has not even sent, as well as those
    // acked and still in the pipeline.
    const std::size_t due_now = std::min<std::size_t>(
        windows, (Now() - origin) / cfg.window_period_ns);
    r.window_backlog.push_back(
        static_cast<double>(due_now - std::min(due_now, vis.visible())));
    r.query_backlog.push_back(static_cast<double>(
        dispatched.load(std::memory_order_relaxed) -
        resolved.load(std::memory_order_acquire)));
    sent[w] = Now();
    const fastppr::Status s = d->service->Ingest(in.Window(w));
    acked[w] = Now();
    ok[w] = s.ok();
    if (!s.ok() && r.write.first_error.empty()) {
      r.write.first_error = s.ToString();
    }
    if (tracer->on()) tracer->Add("engine.Ingest", sent[w], acked[w], parent, w);
  }
  r.end_window_backlog =
      static_cast<double>(windows - std::min(windows, vis.visible()));
  r.end_query_backlog = static_cast<double>(
      dispatched.load(std::memory_order_relaxed) -
      resolved.load(std::memory_order_acquire));
  Timed(tracer, "engine.Quiesce", parent, 0, [&] { d->service->Quiesce(); });
  const uint64_t quiesced = Now();
  pacer.join();
  const uint64_t wait_start = Now();
  while (resolved.load(std::memory_order_acquire) < queries) {
    if (Now() - wait_start > 60'000'000'000ull) Die("queries never resolved");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t cpu1 = ProcessCpuNs();
  const uint64_t tier_ns = TierCpuNs(*d) - tier0;
  const uint64_t poller_ns = poller.Stop();

  WriteResult& wr = r.write;
  wr.events = in.EventsIn(0, windows);
  wr.seconds = static_cast<double>(quiesced - origin) * 1e-9;
  wr.cpu_ns = Less(cpu1 - cpu0, tier_ns + pacer_cpu_ns + poller_ns);
  for (std::size_t w = 0; w < windows; ++w) {
    wr.call_ms.push_back(Ms(acked[w] - sent[w]));
    wr.lateness_ms.push_back(Ms(sent[w] - due[w]));
    wr.ack_ms.push_back(ok[w] ? Ms(acked[w] - due[w]) : kInf);
    const uint64_t vis_ns = vis.stamp_ns(w);
    wr.visible_ms.push_back(ok[w] && vis_ns != 0 ? Ms(vis_ns - std::min(vis_ns, due[w]))
                                                  : kInf);
    if (!ok[w]) ++wr.failed;
  }
  ReadResult& rr = r.read;
  rr.cpu_ns = tier_ns + pacer_cpu_ns;
  uint64_t last_done = origin;
  for (std::size_t q = 0; q < queries; ++q) {
    const uint64_t sched = origin + in.arrivals_ns[q];
    rr.lateness_ms.push_back(Ms(submit_ns[q] - std::min(submit_ns[q], sched)));
    last_done = std::max(last_done, done_ns[q]);
    if (tracer->on()) tracer->Add("serve.request", sched, done_ns[q], parent, q);
    rr.Record(answers[q], sched, done_ns[q]);
  }
  rr.seconds = static_cast<double>(last_done - origin) * 1e-9;
  return r;
}

/// Mean |served ∩ exact top-k| / k over the probe seeds, where exact is
/// power-iteration personalized PageRank on the quiesced graph with the
/// same friend exclusion as the walker. Deterministic at a fixed seed.
double PrecisionAtK(const Config& cfg, Deployment* d, const Inputs& in,
                    std::string* defect) {
  const fastppr::DiGraph& graph = d->engine->graph();
  const fastppr::CsrGraph csr = fastppr::CsrGraph::FromDiGraph(graph);
  std::vector<double> precision(in.probes.size(), 0.0);
  std::vector<std::vector<NodeId>> exact(in.probes.size());
  // Exact answers are pure functions of the graph: compute them on two
  // threads while the tier serves the probes.
  auto solve = [&](std::size_t from, std::size_t step) {
    fastppr::PowerIterationOptions opts;
    opts.epsilon = cfg.epsilon;
    opts.tolerance = 1e-9;
    for (std::size_t i = from; i < in.probes.size(); i += step) {
      const NodeId p = in.probes[i];
      std::vector<NodeId> exclude{p};
      for (NodeId v : graph.OutNeighbors(p)) exclude.push_back(v);
      exact[i] = fastppr::TopKNodes(
          fastppr::PersonalizedPageRank(csr, p, opts).scores, cfg.k, exclude);
    }
  };
  std::thread helper(solve, 1, 2);
  std::vector<fastppr::serve::Response> served(in.probes.size());
  for (std::size_t i = 0; i < in.probes.size(); ++i) {
    served[i] = Ask(cfg, d, in.probes[i], 0x5eed0000ull + i);
  }
  solve(0, 2);
  helper.join();
  double sum = 0.0;
  for (std::size_t i = 0; i < in.probes.size(); ++i) {
    const fastppr::serve::Response& resp = served[i];
    std::string why = resp.status.ok() ? AnswerDefect(resp)
                                       : "probe failed: " + resp.status.ToString();
    if (!why.empty() && defect->empty()) *defect = why;
    const std::unordered_set<NodeId> truth(exact[i].begin(), exact[i].end());
    std::size_t hits = 0;
    for (const fastppr::ScoredNode& s : resp.ranked) hits += truth.count(s.node);
    sum += static_cast<double>(hits) / static_cast<double>(cfg.k);
  }
  return sum / static_cast<double>(in.probes.size());
}

WriteResult Pool(const std::vector<WriteResult>& phases) {
  WriteResult all;
  for (const WriteResult& w : phases) {
    all.ack_ms.insert(all.ack_ms.end(), w.ack_ms.begin(), w.ack_ms.end());
    all.visible_ms.insert(all.visible_ms.end(), w.visible_ms.begin(),
                          w.visible_ms.end());
    all.call_ms.insert(all.call_ms.end(), w.call_ms.begin(), w.call_ms.end());
    all.events += w.events;
    all.failed += w.failed;
    all.seconds += w.seconds;
    all.cpu_ns += w.cpu_ns;
    if (all.first_error.empty()) all.first_error = w.first_error;
  }
  return all;
}

/// End-to-end metrics from one run's phases. The untraced run reports
/// them as metrics; the traced run as `traced.*` diagnostics, so the
/// difference between the two is the tracing overhead.
///
/// The timed metrics are the program's CPU time: per event, per query
/// and for set-up. On a shared host the wall-clock figures move with
/// the host's load: on a 4-vCPU VM, next to four threads busy half the
/// time, ingest throughput fell 35% while its CPU per event rose 7%,
/// and over ten runs under host steal the wall-clock figures spread up
/// to about three times as wide as CPU time. So throughput and latency
/// are printed next to them and not gated.
void EndToEnd(const std::vector<WriteResult>& writes,
              const ReadResult& read, double precision,
              const std::vector<double>& setup_s, bool as_metrics,
              Report* report) {
  const WriteResult w = Pool(writes);
  const uint64_t attempted = w.ack_ms.size() + read.latency_ms.size();
  const uint64_t failed = w.failed + read.failed;
  auto put = [&](const std::string& name, double value, const char* unit) {
    if (as_metrics) {
      report->Metric(name, value, unit);
    } else {
      report->Diag("traced." + name, value, unit);
    }
  };
  put("setup_s", Median(setup_s), "s");
  put("peak_rss_mb", PeakRssMb(), "MB");
  put("ok_share", 1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
      "ratio");
  put("cpu_us_per_event",
      1e-3 * static_cast<double>(w.cpu_ns) / static_cast<double>(w.events), "us");
  put("cpu_us_per_query",
      1e-3 * static_cast<double>(read.cpu_ns) /
          static_cast<double>(read.latency_ms.size()),
      "us");
  put("precision_at_10", precision, "ratio");
  report->CountOps(attempted, failed);
  if (as_metrics) {
    report->Diag("failed_share",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 "ratio");
    report->Diag("windows", static_cast<double>(w.ack_ms.size()), "count");
    report->Diag("queries", static_cast<double>(read.latency_ms.size()),
                 "count");
    report->Diag("events_per_s", static_cast<double>(w.events) / w.seconds, "1/s");
    report->Diag("ack_p50_ms", Median(w.ack_ms), "ms");
    report->Diag("visible_p50_ms", Median(w.visible_ms), "ms");
    report->Diag("visible_p90_ms", Quantile(w.visible_ms, 0.90), "ms");
    report->Diag("visible_p99_ms", Quantile(w.visible_ms, 0.99), "ms");
    report->Diag("queries_per_s", static_cast<double>(read.ok) / read.seconds,
                 "1/s");
    report->Diag("query_p50_ms", Median(read.latency_ms), "ms");
    report->Diag("query_p90_ms", Quantile(read.latency_ms, 0.90), "ms");
    report->Diag("query_p99_ms", Quantile(read.latency_ms, 0.99), "ms");
  }
}

/// Closed-loop writer over windows [lo, hi), then Quiesce(); a poller
/// thread stamps when each window's epoch becomes visible.
WriteResult ClosedWriter(Deployment* d, const Inputs& in, std::size_t lo,
                         std::size_t hi, Tracer* tracer, int64_t parent) {
  WriteResult r;
  Visibility vis(d->service.get(), hi - lo);
  std::vector<uint64_t> sent(hi - lo);
  std::vector<uint64_t> acked(hi - lo);
  std::vector<bool> ok(hi - lo, false);
  VisibilityPoller poller(&vis);
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t tier0 = TierCpuNs(*d);
  const uint64_t start = Now();
  for (std::size_t w = lo; w < hi; ++w) {
    sent[w - lo] = Now();
    const fastppr::Status s = d->service->Ingest(in.Window(w));
    acked[w - lo] = Now();
    ok[w - lo] = s.ok();
    if (!s.ok() && r.first_error.empty()) r.first_error = s.ToString();
    if (tracer->on()) {
      tracer->Add("engine.Ingest", sent[w - lo], acked[w - lo], parent, w);
    }
  }
  Timed(tracer, "engine.Quiesce", parent, 0, [&] { d->service->Quiesce(); });
  r.seconds = static_cast<double>(Now() - start) * 1e-9;
  const uint64_t cpu1 = ProcessCpuNs();
  const uint64_t tier_ns = TierCpuNs(*d) - tier0;
  r.cpu_ns = Less(cpu1 - cpu0, tier_ns + poller.Stop());
  r.events = in.EventsIn(lo, hi);
  for (std::size_t i = 0; i < hi - lo; ++i) {
    r.call_ms.push_back(Ms(acked[i] - sent[i]));
    r.ack_ms.push_back(ok[i] ? Ms(acked[i] - sent[i]) : kInf);
    const uint64_t v = vis.stamp_ns(i);
    r.visible_ms.push_back(ok[i] && v != 0 ? Ms(v - std::min(v, sent[i])) : kInf);
    if (!ok[i]) ++r.failed;
  }
  return r;
}

/// Closed loop of `cfg.read_clients` clients, each waiting for its own
/// reply, over the pre-drawn read seeds.
ReadResult ClosedReaders(const Config& cfg, Deployment* d, const Inputs& in,
                         Tracer* tracer, int64_t parent) {
  const std::size_t n = in.reads.size();
  std::vector<uint64_t> sent(n);
  std::vector<uint64_t> done(n);
  std::vector<fastppr::serve::Response> answers(n);
  std::vector<uint64_t> client_cpu_ns(cfg.read_clients, 0);
  auto client = [&](std::size_t c) {
    const uint64_t own0 = ThreadCpuNs();
    for (std::size_t i = c; i < n; i += cfg.read_clients) {
      sent[i] = Now();
      answers[i] = Ask(cfg, d, in.reads[i], in.read_rng[i], &done[i]);
    }
    client_cpu_ns[c] = ThreadCpuNs() - own0;
  };
  const uint64_t tier0 = TierCpuNs(*d);
  const uint64_t start = Now();
  std::vector<std::thread> clients;
  for (std::size_t c = 1; c < cfg.read_clients; ++c) clients.emplace_back(client, c);
  client(0);
  for (std::thread& t : clients) t.join();
  const uint64_t end = Now();

  ReadResult r;
  r.seconds = static_cast<double>(end - start) * 1e-9;
  r.cpu_ns = TierCpuNs(*d) - tier0;
  for (uint64_t ns : client_cpu_ns) r.cpu_ns += ns;
  for (std::size_t i = 0; i < n; ++i) {
    if (tracer->on()) tracer->Add("serve.request", sent[i], done[i], parent, i);
    r.Record(answers[i], sent[i], done[i]);
  }
  return r;
}

}  // namespace

void ReadResult::Record(const fastppr::serve::Response& resp,
                        uint64_t start, uint64_t done) {
  if (!resp.status.ok()) {
    ++failed;
    latency_ms.push_back(kInf);
    if (first_failure.empty()) first_failure = resp.status.ToString();
    return;
  }
  ++ok;
  latency_ms.push_back(Ms(done - std::min(done, start)));
  // Cache hits bypass the queue and the walk; queue and service samples
  // describe admitted executions only.
  if (!resp.cache_hit) {
    queue_ms.push_back(Ms(resp.queue_ns));
    service_ms.push_back(Ms(resp.service_ns));
  }
  const std::string defect = AnswerDefect(resp);
  if (!defect.empty() && bad_answers++ == 0) first_bad = defect;
}

void RunWorkload(const Config& cfg, const Inputs& in, Report* report) {
  Tracer tracer(cfg.trace);
  const std::string dir = cfg.work_dir + "/durability";
  const bool serve = cfg.workload == "serve";
  const bool mixed = cfg.workload == "mixed";

  // Set-up, several times when untraced: setup_s is the median of their
  // CPU times (see EndToEnd), the wall-clock median is printed. The
  // serve warm-up is part of set-up and is also its write phase.
  const HostNoise noise0 = HostNoise::Sample();
  std::unique_ptr<Deployment> d;
  std::vector<double> setup_s;
  std::vector<WriteResult> writes;
  RepairDelta repair;
  const std::size_t setups = cfg.trace ? 1 : cfg.setups;
  std::vector<double> setup_wall_s;
  for (std::size_t i = 0; i < setups; ++i) {
    d.reset();
    const uint64_t t0 = Now();
    const uint64_t cpu0 = ProcessCpuNs();
    d = SetUp(cfg, in, dir, &tracer);
    uint64_t cpu_ns = ProcessCpuNs() - cpu0;
    if (serve) {
      repair.before = d->engine->lifetime_stats();
      const int64_t warm = tracer.on() ? tracer.Open("warmup") : -1;
      writes.push_back(ClosedWriter(d.get(), in, 0, cfg.windows, &tracer, warm));
      if (warm >= 0) tracer.Close(warm);
      cpu_ns += writes.back().cpu_ns;
    }
    setup_s.push_back(static_cast<double>(cpu_ns) * 1e-9);
    setup_wall_s.push_back(static_cast<double>(Now() - t0) * 1e-9);
  }
  report->Diag("setup_wall_s", Median(setup_wall_s), "s");

  ReadResult read;
  OpenLoopResult open;
  const int64_t phase = tracer.on() ? tracer.Open("workload." + cfg.workload) : -1;
  if (!serve) repair.before = d->engine->lifetime_stats();
  if (cfg.workload == "ingest") {
    writes.push_back(ClosedWriter(d.get(), in, 0, cfg.windows, &tracer, phase));
    repair.after = d->engine->lifetime_stats();
    read = ClosedReaders(cfg, d.get(), in, &tracer, phase);
  } else if (serve) {
    repair.after = d->engine->lifetime_stats();
    read = ClosedReaders(cfg, d.get(), in, &tracer, phase);
  } else {
    open = OpenLoop(cfg, d.get(), in, &tracer, phase);
    repair.after = d->engine->lifetime_stats();
    writes.push_back(open.write);
    read = open.read;
  }
  if (phase >= 0) tracer.Close(phase);
  const HostNoise noise1 = HostNoise::Sample();

  // Output checks (untimed).
  std::string defect;
  const uint64_t checks0 = Now();
  const double precision = PrecisionAtK(cfg, d.get(), in, &defect);
  report->Diag("precision_probe_s", static_cast<double>(Now() - checks0) * 1e-9, "s");
  const WriteResult all_writes = Pool(writes);
  report->Check("ingest_ok", all_writes.failed == 0,
                all_writes.failed == 0 ? "every Ingest returned OK"
                                       : all_writes.first_error);
  report->Check("answers_full_single_epoch_nonempty",
                read.bad_answers == 0 && defect.empty(),
                read.bad_answers ? read.first_bad
                                 : (defect.empty() ? "all answers" : defect));
  char detail[160];
  std::snprintf(detail, sizeof(detail), "precision_at_10 %.4f, floor %.2f",
                precision, cfg.precision_floor);
  report->Check("precision_floor", precision >= cfg.precision_floor, detail);
  if (!mixed) {
    const uint64_t failed = all_writes.failed + read.failed;
    report->Check("failed_share_zero", failed == 0,
                  failed == 0 ? "no failed operations"
                              : std::to_string(failed) + " failed, first: " +
                                    (read.first_failure.empty()
                                         ? all_writes.first_error
                                         : read.first_failure));
  } else {
    // A writer that falls behind its schedule grows the window backlog
    // too (see OpenLoop), so an unsustainable write rate fails here.
    const bool grew_w = BacklogGrew(open.window_backlog, 2.0);
    const bool grew_q = BacklogGrew(open.query_backlog, 4.0);
    std::snprintf(detail, sizeof(detail),
                  "end backlog: %.0f windows acked-not-visible, %.0f queries "
                  "unresolved",
                  open.end_window_backlog, open.end_query_backlog);
    report->Check("backlog_steady", !grew_w && !grew_q, detail);
    report->Diag("end_window_backlog", open.end_window_backlog, "count");
    report->Diag("end_query_backlog", open.end_query_backlog, "count");
    report->Diag("window_lateness_p99_ms", Quantile(open.write.lateness_ms, 0.99), "ms");
    report->Diag("window_lateness_max_ms", Quantile(open.write.lateness_ms, 1.0), "ms");
    report->Diag("query_lateness_p99_ms", Quantile(read.lateness_ms, 0.99), "ms");
    report->Diag("query_lateness_max_ms", Quantile(read.lateness_ms, 1.0), "ms");
  }

  if (cfg.trace) {
    MeasureLayers(cfg, in, d.get(), writes.back(), read, repair, &tracer, report);
  }
  const std::size_t applied =
      cfg.windows + (cfg.trace ? cfg.drain_windows : 0);
  const std::size_t live = d->engine->num_edges();
  report->Check("final_edge_count", live == in.live_after[applied - 1],
                std::to_string(live) + " live edges, stream has " +
                    std::to_string(in.live_after[applied - 1]));
  d->service->Quiesce();
  const uint64_t audit0 = Now();
  d->engine->CheckConsistency();  // aborts loudly on a violation
  report->Diag("consistency_audit_s", static_cast<double>(Now() - audit0) * 1e-9, "s");
  report->Check("check_consistency", true, "CheckConsistency passed");
  d.reset();

  EndToEnd(writes, read, precision, setup_s, !cfg.trace, report);
  report->Diag("steal_s", noise1.steal_s - noise0.steal_s, "s");
  report->Diag("invol_csw", noise1.invol_csw - noise0.invol_csw, "count");
  if (cfg.trace) {
    MeasureReplays(cfg, in, &tracer, report);
    const std::string trace_name = "trace-" + cfg.workload + ".json";
    report->Check("trace_written",
                  tracer.WriteChromeTrace(cfg.work_dir + "/" + trace_name),
                  trace_name);
    for (const auto& [name, row] : tracer.Ledger()) {
      report->Diag("ledger." + name + ".count", static_cast<double>(row.count), "count");
      report->Diag("ledger." + name + ".total_ms", row.total_ms, "ms");
      report->Diag("ledger." + name + ".self_ms", row.self_ms, "ms");
    }
  }
}

}  // namespace perfbench
