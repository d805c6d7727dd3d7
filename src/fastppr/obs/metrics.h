#ifndef FASTPPR_OBS_METRICS_H_
#define FASTPPR_OBS_METRICS_H_

// Always-compiled-in metrics registry (DESIGN.md §9).
//
// A MetricsRegistry owns named counters, gauges and latency histograms.
// Counters are striped: each stripe is one cache-line-padded relaxed
// atomic, so S repair threads incrementing "their" stripe never bounce
// a line. Hot paths retain raw
// handle pointers at registration time and never touch the registry
// mutex again; the mutex guards only registration and export iteration.
// Snapshots (ExportJson / Value / Total) read the live atomics with
// relaxed loads — writers are never stopped, a concurrent snapshot sees
// some valid recent value per cell.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fastppr/obs/latency_histogram.h"
#include "fastppr/util/check.h"

namespace fastppr::obs {

/// A named monotonic counter (or, via Set, a gauge) with per-stripe
/// cache-line-padded cells. Stripe indices are caller-assigned (shard
/// ids); stripes == 1 is a plain global counter.
class Counter {
 public:
  explicit Counter(std::size_t stripes)
      : stripes_(stripes), cells_(new Cell[stripes]) {
    FASTPPR_CHECK(stripes >= 1);
  }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n, std::size_t stripe = 0) {
    cells_[stripe].v.fetch_add(n, std::memory_order_relaxed);
  }
  /// Gauge semantics: overwrite the stripe's value.
  void Set(uint64_t v, std::size_t stripe = 0) {
    cells_[stripe].v.store(v, std::memory_order_relaxed);
  }

  std::size_t stripes() const { return stripes_; }
  uint64_t Value(std::size_t stripe = 0) const {
    return cells_[stripe].v.load(std::memory_order_relaxed);
  }
  uint64_t Total() const {
    uint64_t t = 0;
    for (std::size_t s = 0; s < stripes_; ++s) t += Value(s);
    return t;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::size_t stripes_;
  std::unique_ptr<Cell[]> cells_;
};

/// Registry of named metrics. Registration returns stable raw pointers
/// (deque-backed storage; valid for the registry's lifetime) for the
/// hot paths; export walks the same objects without stopping writers.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* RegisterCounter(const std::string& name,
                           std::size_t stripes = 1) {
    return RegisterCell(name, stripes, /*gauge=*/false);
  }
  /// Same storage as a counter; exported under "gauges" and expected to
  /// be written with Set.
  Counter* RegisterGauge(const std::string& name, std::size_t stripes = 1) {
    return RegisterCell(name, stripes, /*gauge=*/true);
  }
  LatencyHistogram* RegisterHistogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    histograms_.emplace_back();
    histograms_.back().name = name;
    return &histograms_.back().hist;
  }

  /// Snapshot of every metric as a JSON object string:
  ///   {"counters": {name: total | {"total": t, "per_stripe": [...]}},
  ///    "gauges": {...},
  ///    "histograms": {name: {"count","overflow","mean_us","min_us",
  ///                          "max_us","p50_us","p90_us","p99_us",
  ///                          "p999_us"}}}
  /// Histogram values are exported in microseconds (recorded in ns).
  std::string ExportJson() const;

 private:
  struct NamedCounter {
    std::string name;
    bool gauge = false;
    std::unique_ptr<Counter> counter;
  };
  struct NamedHistogram {
    std::string name;
    LatencyHistogram hist;
  };

  Counter* RegisterCell(const std::string& name, std::size_t stripes,
                        bool gauge) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.push_back(
        NamedCounter{name, gauge, std::make_unique<Counter>(stripes)});
    return counters_.back().counter.get();
  }

  mutable std::mutex mu_;
  std::deque<NamedCounter> counters_;
  std::deque<NamedHistogram> histograms_;
};

}  // namespace fastppr::obs

#endif  // FASTPPR_OBS_METRICS_H_
