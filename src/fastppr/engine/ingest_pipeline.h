#ifndef FASTPPR_ENGINE_INGEST_PIPELINE_H_
#define FASTPPR_ENGINE_INGEST_PIPELINE_H_

// Queueing primitives for the pipelined ingest→repair→publish engine
// (DESIGN.md §11). A deliberately simple mutex+cv structure: the queue
// has exactly ONE producer and ONE consumer, its depth is one window,
// and the interesting concurrency lives in the stage contract, not the
// queue.
//
// The stage graph is acyclic: caller → advance queue → pipeline thread
// → one ParallelFor over the shards, then the window boundary (the
// snapshot publish) on the pipeline thread itself. The caller drains
// the previous window before it pushes the next, so the advance queue
// never blocks and nothing can deadlock.

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
/// closed AND drained.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : cap_(capacity) {
    FASTPPR_CHECK(capacity >= 1);
  }

  /// Returns false (dropping the item) only after Close().
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || q_.size() < cap_; });
    if (closed_) return false;
    q_.push_back(std::move(item));
    not_empty_.notify_one();
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

 private:
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> q_;
  std::size_t cap_;
  bool closed_ = false;
};

/// One item on the caller→pipeline advance queue: one ingestion
/// window's applied prefix (the repair unit) plus the window's
/// submitted event count.
struct PipelineItem {
  std::vector<EdgeEvent> applied;
  std::size_t window_events = 0;
};

}  // namespace fastppr::pipe

#endif  // FASTPPR_ENGINE_INGEST_PIPELINE_H_
