#ifndef FASTPPR_BENCH_BENCH_COMMON_H_
#define FASTPPR_BENCH_BENCH_COMMON_H_

// Shared plumbing for the figure/table reproduction harnesses.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "fastppr/graph/digraph.h"
#include "fastppr/graph/edge_stream.h"
#include "fastppr/graph/types.h"
#include "fastppr/obs/latency_histogram.h"
#include "fastppr/store/walk_store.h"
#include "fastppr/util/check.h"
#include "fastppr/util/csv_writer.h"
#include "fastppr/util/random.h"
#include "fastppr/util/timer.h"

namespace fastppr::bench {

/// Best of two runs: the box is shared/noisy and compared layouts run
/// back to back, so a single pass is biased by frequency drift.
template <typename F>
double BestOfN(int n, const F& run) {
  double best = 0.0;
  for (int i = 0; i < n; ++i) best = std::max(best, run());
  return best;
}

template <typename F>
double BestOfTwo(const F& run) {
  return BestOfN(2, run);
}

/// Struct-result variant: keeps the whole result of whichever run scored
/// higher under `key`.
template <typename F, typename KeyFn>
auto BestOfTwo(const F& run, const KeyFn& key) {
  auto a = run();
  auto b = run();
  return key(a) > key(b) ? a : b;
}

/// The window-streaming loop shared by the engine-level benches: feeds
/// `events` to `apply` (a callable taking one std::span<const EdgeEvent>
/// window and returning Status) in `window`-sized spans and returns
/// events/sec. When `per_window` is non-null, each window's wall
/// duration is recorded into it (nanoseconds) — the obs-layer histogram
/// replaces the ad-hoc per-bench timing copies, so every bench reports
/// the same p50/p99/p999 definition.
template <typename ApplyFn>
double TimeWindows(const std::vector<EdgeEvent>& events, std::size_t window,
                   const ApplyFn& apply,
                   obs::LatencyHistogram* per_window = nullptr) {
  WallTimer timer;
  for (std::size_t lo = 0; lo < events.size(); lo += window) {
    const std::size_t hi = std::min(events.size(), lo + window);
    const uint64_t t0 = per_window != nullptr ? obs::NowNanos() : 0;
    FASTPPR_CHECK(
        apply(std::span<const EdgeEvent>(events.data() + lo, hi - lo)).ok());
    if (per_window != nullptr) per_window->Record(obs::NowNanos() - t0);
  }
  return static_cast<double>(events.size()) / timer.ElapsedSeconds();
}

/// Open-loop arrival schedule: `count` Poisson arrival instants (ns
/// offsets from t=0, non-decreasing) at `rate_per_sec`, exponential
/// gaps drawn by inversion from the caller's seeded Rng. The schedule
/// is fixed BEFORE the run and latency is measured from the scheduled
/// instant — arrivals never wait on completions, so a slow service
/// shows up as queueing delay instead of silently throttling the
/// offered load (the coordinated-omission trap TimeWindows-style
/// closed loops cannot avoid). Shared by bench_serving and any future
/// open-loop harness.
inline std::vector<uint64_t> PoissonArrivalScheduleNs(std::size_t count,
                                                      double rate_per_sec,
                                                      Rng* rng) {
  FASTPPR_CHECK(rate_per_sec > 0.0);
  std::vector<uint64_t> arrivals;
  arrivals.reserve(count);
  double t_ns = 0.0;
  const double mean_gap_ns = 1e9 / rate_per_sec;
  for (std::size_t i = 0; i < count; ++i) {
    // Inversion: gap = -ln(1-U) * mean. NextDouble() is in [0, 1), so
    // 1-U is in (0, 1] and the log is finite.
    t_ns += -std::log(1.0 - rng->NextDouble()) * mean_gap_ns;
    arrivals.push_back(static_cast<uint64_t>(t_ns));
  }
  return arrivals;
}

/// The ingestion-throughput loop shared by the update-path benches:
/// streams `edges` (as insertions) through a fresh walk store over an
/// initially empty n-node graph in `batch`-sized windows (batch <= 1 is
/// the classic one-event-at-a-time path) and returns events/sec. Drives
/// the store directly so the numbers isolate storage effects. `Store` is
/// WalkStore or SalsaWalkStore. When `stats_out` is non-null, the
/// accumulated WalkUpdateStats of the whole stream are returned through
/// it. When `per_batch` is non-null, each batch's
/// wall duration is recorded into it (nanoseconds; batch > 1 only —
/// per-event timing would dominate the one-at-a-time path it measures).
template <typename Store>
double MeasureIngestThroughput(std::size_t n, std::size_t R, double eps,
                               const std::vector<Edge>& edges,
                               std::size_t batch, uint64_t store_seed,
                               uint64_t rng_seed,
                               WalkUpdateStats* stats_out = nullptr,
                               obs::LatencyHistogram* per_batch = nullptr) {
  DiGraph g(n);
  Store store;
  store.Init(g, R, eps, store_seed);
  Rng rng(rng_seed);
  WalkUpdateStats stats;
  WallTimer timer;
  if (batch <= 1) {
    for (const Edge& e : edges) {
      if (!g.AddEdge(e.src, e.dst).ok()) std::abort();
      stats.Accumulate(store.OnEdgeInserted(g, e.src, e.dst, &rng));
    }
  } else {
    std::vector<EdgeEvent> window;
    WindowDelta delta;
    for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
      const std::size_t hi = std::min(edges.size(), lo + batch);
      const uint64_t t0 = per_batch != nullptr ? obs::NowNanos() : 0;
      window.clear();
      for (std::size_t i = lo; i < hi; ++i) {
        if (!g.AddEdge(edges[i].src, edges[i].dst).ok()) std::abort();
        window.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, edges[i]});
      }
      delta.Build(window, Store::kRepairsInEdges);
      stats.Accumulate(store.RepairWindow(g, delta, &rng));
      if (per_batch != nullptr) per_batch->Record(obs::NowNanos() - t0);
    }
  }
  const double events_per_sec =
      static_cast<double>(edges.size()) / timer.ElapsedSeconds();
  if (stats_out != nullptr) *stats_out = stats;
  return events_per_sec;
}

/// Wall nanoseconds per walk step of a MeasureIngestThroughput run that
/// streamed `events` events at `events_per_sec` and took `stats`'
/// steps: graph mutation plus repair, over the repair work, so a change
/// that alters the step count does not read as a cost change.
inline double NsPerWalkStep(std::size_t events, double events_per_sec,
                            const WalkUpdateStats& stats) {
  if (events_per_sec <= 0.0 || stats.walk_steps == 0) return 0.0;
  return 1e9 * static_cast<double>(events) /
         (events_per_sec * static_cast<double>(stats.walk_steps));
}

/// CPU seconds consumed so far by this whole process (every thread:
/// pipeline, repair lanes and publisher included).
inline double ProcessCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set size of this process in bytes, or 0 where
/// unsupported. ru_maxrss is a monotone process-lifetime high-water
/// mark — it covers every phase the harness ran (baselines, transient
/// comparison graphs, all engine configurations), so report it as
/// overall footprint context, never as a per-configuration measurement;
/// per-structure claims use the explicit MemoryBytes() accounting.
inline std::size_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// Directory the CSV series are written to. Created on demand; harnesses
/// keep running (stdout is the primary artifact) if it cannot be created.
inline std::string ResultsDir() {
  const char* env = std::getenv("FASTPPR_RESULTS_DIR");
  std::string dir = env != nullptr ? env : "results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Opens a CSV in the results directory; returns false (and warns) on
/// failure so harnesses degrade gracefully.
inline bool OpenCsv(const std::string& name,
                    const std::vector<std::string>& header, CsvWriter* w) {
  Status s = CsvWriter::Open(ResultsDir() + "/" + name, header, w);
  if (!s.ok()) {
    std::fprintf(stderr, "warning: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

/// Closes a CSV, surfacing deferred write errors (ENOSPC) as a warning.
/// CsvWriter's destructor does the same as a backstop; call this where
/// the file is an artifact the harness reports on.
inline void FinishCsv(CsvWriter* w) {
  Status s = w->Finish();
  if (!s.ok()) std::fprintf(stderr, "warning: %s\n", s.ToString().c_str());
}

/// Returns the value following `--json` in argv, or `fallback` when the
/// flag is absent. Harnesses use this to redirect their machine-readable
/// report; an empty return means "do not write one".
inline std::string JsonPathFromArgs(int argc, char** argv,
                                    const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  if (argc > 1 && std::string(argv[argc - 1]) == "--json") {
    std::fprintf(stderr,
                 "warning: --json given without a path; writing %s\n",
                 fallback.c_str());
  }
  return fallback;
}

/// Minimal machine-readable metric report: a flat {"name": ..., "metrics":
/// {key: number, ...}} JSON object. The perf trajectory across PRs is
/// diffed from these files, so keys must stay stable once published.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  /// Appends one metric. A repeated key is a bench bug (a JSON reader
  /// keeps only one of the values), so it aborts.
  void Add(const std::string& key, double value) {
    for (const auto& metric : metrics_) {
      if (metric.first == key) {
        std::fprintf(stderr, "duplicate report key: %s\n", key.c_str());
        FASTPPR_CHECK_MSG(false, "JsonReport keys must be unique");
      }
    }
    metrics_.emplace_back(key, value);
  }

  /// Writes the report; warns (and keeps the process alive) on failure,
  /// matching OpenCsv's degrade-gracefully contract. No-op when `path`
  /// is empty.
  void WriteTo(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    out << "{\n  \"name\": \"" << name_ << "\",\n  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].second);
      out << "    \"" << metrics_[i].first << "\": " << buf
          << (i + 1 < metrics_.size() ? ",\n" : "\n");
    }
    out << "  }\n}\n";
    out.flush();
    if (!out.good()) {
      // A truncated report would be diffed as a perf regression; a loud
      // warning beats a silently short file.
      std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
      return;
    }
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

inline void Banner(const char* title, const char* paper_ref) {
  std::printf("==============================================================="
              "=\n%s\n(reproduces %s)\n"
              "================================================================"
              "\n",
              title, paper_ref);
}

}  // namespace fastppr::bench

#endif  // FASTPPR_BENCH_BENCH_COMMON_H_
