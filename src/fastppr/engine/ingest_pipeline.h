#ifndef FASTPPR_ENGINE_INGEST_PIPELINE_H_
#define FASTPPR_ENGINE_INGEST_PIPELINE_H_

// Queueing primitives for the pipelined ingest→repair→publish engine
// (DESIGN.md §11). Deliberately simple mutex+cv structures: every queue
// has exactly ONE producer and ONE consumer, depths are single digits,
// and the interesting concurrency lives in the stage contract, not the
// queues.
//
// Backpressure is by blocking Push at capacity, and the stage graph is
// acyclic (caller → advance queue → pipeline thread → one ParallelFor
// over the shards; pipeline thread → publish queue → publisher), so a
// full queue stalls exactly its upstream stage and nothing can
// deadlock.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "fastppr/graph/edge_stream.h"
#include "fastppr/util/check.h"

namespace fastppr::pipe {

/// Single-producer single-consumer bounded FIFO. Push blocks while
/// full; Pop blocks while empty and returns false once the queue is
/// closed AND drained. high_water() is the consumer-side depth gauge.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : cap_(capacity) {
    FASTPPR_CHECK(capacity >= 1);
  }

  /// Returns false (dropping the item) only after Close().
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    return PushLocked(&lock, std::move(item));
  }

  /// Push as a hand-off: also blocks until the consumer has popped the
  /// item (single producer, so the queue is then empty). The producer
  /// thus runs at most one item ahead of the consumer and returns the
  /// moment the consumer starts on its item. Returns false only after
  /// Close().
  bool Handoff(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!PushLocked(&lock, std::move(item))) return false;
    not_full_.wait(lock, [&] { return closed_ || q_.empty(); });
    return true;
  }

  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;
    *out = std::move(q_.front());
    q_.pop_front();
    not_full_.notify_one();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  bool PushLocked(std::unique_lock<std::mutex>* lock, T item) {
    not_full_.wait(*lock, [&] { return closed_ || q_.size() < cap_; });
    if (closed_) return false;
    q_.push_back(std::move(item));
    if (q_.size() > high_water_) high_water_ = q_.size();
    not_empty_.notify_one();
    return true;
  }

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> q_;
  std::size_t cap_;
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

/// One item on the caller→pipeline advance queue: one ingestion
/// window's applied prefix (the repair unit, replayed in order into the
/// repair replica) plus the window's submitted event count.
struct PipelineItem {
  std::vector<EdgeEvent> applied;
  std::size_t window_events = 0;
};

}  // namespace fastppr::pipe

#endif  // FASTPPR_ENGINE_INGEST_PIPELINE_H_
