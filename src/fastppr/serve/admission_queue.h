#ifndef FASTPPR_SERVE_ADMISSION_QUEUE_H_
#define FASTPPR_SERVE_ADMISSION_QUEUE_H_

// Bounded admission queue with controlled-delay shedding (DESIGN.md
// §10): the overload valve of the serving tier.
//
// Policy, in order of defense depth:
//  * Enqueue-side shed: a full queue rejects immediately with a
//    retry-after hint (estimated drain time of the backlog) instead of
//    growing without bound — offered load past saturation turns into
//    fast rejections, not latency.
//  * Dequeue-side shed (CoDel-style controlled delay): a request whose
//    sojourn already exceeds target + interval can no longer meet any
//    reasonable deadline; it is handed back as shed so the caller sends
//    the rejection, and the worker's capacity goes to a request that
//    can still be served well.
//  * LIFO-under-pressure: while the oldest entry's sojourn exceeds the
//    target, admitted dequeues pop the NEWEST entry. Under sustained
//    overload the served requests are the fresh ones (near-zero wait,
//    flat admitted p99) while the doomed backlog ages into the
//    dequeue-side shed — the adaptive-LIFO + CoDel pairing.
//
// Deterministic by construction: all timing flows through the injected
// ClockFn, so every mode transition is unit-testable with a fake clock.
// Thread safety: one mutex around the deque; any number of producers
// and consumers. The serving tier resolves every entry it ever
// enqueued — dequeue hands back shed entries rather than dropping them,
// and Close() drains the remainder (see DrainClosed).

#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "fastppr/serve/deadline.h"
#include "fastppr/util/check.h"

namespace fastppr::serve {

struct AdmissionQueueOptions {
  /// Hard bound on queued entries; enqueue past it sheds.
  std::size_t capacity = 256;
  /// Sojourn above this marks pressure (LIFO mode). CoDel's "target".
  uint64_t target_delay_ns = 2'000'000;   // 2 ms
  /// Grace past target before dequeue-side shedding. CoDel's window.
  uint64_t shed_interval_ns = 10'000'000; // 10 ms
  ClockFn clock = &obs::NowNanos;
};

/// What one TryDequeue handed back.
enum class DequeueOutcome {
  kEmpty,    ///< nothing queued
  kAdmitted, ///< serve this entry
  kShed,     ///< entry aged past target+interval: reject it, don't serve
};

/// What one TryEnqueue did. Closed and full are distinct on purpose:
/// a full queue is overload (shed + retry hint — backing off helps),
/// a closed queue is shutdown (Unavailable — retrying this server is
/// pointless). Conflating them mislabelled the race where a Submit
/// passes the tier's stopping_ check just as Close() lands.
enum class EnqueueOutcome {
  kQueued,  ///< admitted; the item was moved from
  kFull,    ///< at capacity: shed with the retry-after hint
  kClosed,  ///< shut down: respond Unavailable, no retry hint
};

template <typename T>
class AdmissionQueue {
 public:
  /// Converting constructor on purpose: the serving tier's per-class
  /// queue array is brace-initialized directly from the shared options
  /// (the queue itself is neither copyable nor movable).
  AdmissionQueue(const AdmissionQueueOptions& options)  // NOLINT
      : options_(options) {
    FASTPPR_CHECK(options_.capacity >= 1);
    FASTPPR_CHECK(options_.clock != nullptr);
  }

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits `*item` (moved from only on kQueued — a rejected caller
  /// still holds the request to answer) unless the queue is full or
  /// closed. On kFull sets `*retry_after_ns` to the backlog's estimated
  /// drain time. kClosed sets no hint: shutdown is not overload.
  EnqueueOutcome TryEnqueue(T* item, uint64_t* retry_after_ns = nullptr) {
    const uint64_t now = options_.clock();
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return EnqueueOutcome::kClosed;
    if (entries_.size() >= options_.capacity) {
      if (retry_after_ns != nullptr) {
        *retry_after_ns = RetryAfterLocked(now);
      }
      return EnqueueOutcome::kFull;
    }
    entries_.push_back(Entry{std::move(*item), now});
    if (entries_.size() > high_water_) high_water_ = entries_.size();
    return EnqueueOutcome::kQueued;
  }

  /// Non-blocking. kAdmitted/kShed move the entry into `*out` and its
  /// queue sojourn into `*queue_ns`; kEmpty leaves both untouched.
  DequeueOutcome TryDequeue(T* out, uint64_t* queue_ns = nullptr) {
    const uint64_t now = options_.clock();
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.empty()) return DequeueOutcome::kEmpty;
    const uint64_t oldest_sojourn = Sojourn(now, entries_.front().enqueue_ns);
    if (oldest_sojourn >= options_.target_delay_ns + options_.shed_interval_ns) {
      // Controlled-delay shed: the oldest entry is past saving.
      Pop(/*front=*/true, out, queue_ns, now);
      return DequeueOutcome::kShed;
    }
    // LIFO under pressure, FIFO otherwise.
    const bool pressure = oldest_sojourn >= options_.target_delay_ns;
    Pop(/*front=*/!pressure, out, queue_ns, now);
    return DequeueOutcome::kAdmitted;
  }

  /// Closes the queue: subsequent TryEnqueue calls shed. Queued entries
  /// remain for DrainClosed so every admitted entry still resolves.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  /// Pops one remaining entry after Close (front first); false = empty.
  bool DrainClosed(T* out) {
    std::lock_guard<std::mutex> lock(mu_);
    FASTPPR_CHECK(closed_);
    if (entries_.empty()) return false;
    *out = std::move(entries_.front().item);
    entries_.pop_front();
    return true;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  /// Peak queued depth over the queue's lifetime (never exceeds
  /// capacity — the boundedness proof the fault-injection tests assert).
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }
  std::size_t capacity() const { return options_.capacity; }

  /// The enqueue-shed retry-after hint, for callers that shed without
  /// ever reaching TryEnqueue (e.g. a closed tier).
  uint64_t RetryAfterHint() const {
    const uint64_t now = options_.clock();
    std::lock_guard<std::mutex> lock(mu_);
    return RetryAfterLocked(now);
  }

 private:
  struct Entry {
    T item;
    uint64_t enqueue_ns;
  };

  static uint64_t Sojourn(uint64_t now, uint64_t enqueue_ns) {
    return now >= enqueue_ns ? now - enqueue_ns : 0;
  }

  void Pop(bool front, T* out, uint64_t* queue_ns, uint64_t now) {
    Entry& e = front ? entries_.front() : entries_.back();
    *out = std::move(e.item);
    if (queue_ns != nullptr) *queue_ns = Sojourn(now, e.enqueue_ns);
    if (front) {
      entries_.pop_front();
    } else {
      entries_.pop_back();
    }
  }

  /// Estimated drain time of the current backlog: the oldest entry has
  /// at most target+interval of queueing left before it is shed, so a
  /// full queue clears (serves or sheds) within that horizon. A client
  /// retrying after it lands in a queue that made real progress.
  uint64_t RetryAfterLocked(uint64_t now) const {
    const uint64_t horizon =
        options_.target_delay_ns + options_.shed_interval_ns;
    if (entries_.empty()) return options_.target_delay_ns;
    const uint64_t aged = Sojourn(now, entries_.front().enqueue_ns);
    return aged >= horizon ? options_.target_delay_ns : horizon - aged;
  }

  const AdmissionQueueOptions options_;
  mutable std::mutex mu_;
  std::deque<Entry> entries_;
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace fastppr::serve

#endif  // FASTPPR_SERVE_ADMISSION_QUEUE_H_
