#ifndef FASTPPR_ENGINE_THREAD_POOL_H_
#define FASTPPR_ENGINE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fastppr {

/// A fixed pool of worker threads with deliberately simple, work-stealing
/// free scheduling: ParallelFor(count, fn) assigns task index i to lane
/// i % lanes statically, the calling thread runs lane 0, and the call
/// blocks until every task finished. Shard repairs are the intended
/// workload — a handful of coarse, independent tasks per ingestion
/// window — where static assignment costs nothing and keeps the
/// execution fully predictable.
///
/// Determinism contract: the pool guarantees nothing about *order*, so
/// callers must hand it tasks whose results are order-independent (the
/// sharded engine's tasks write disjoint per-shard state). With that,
/// results are bit-identical for any thread count, including 1.
///
/// ParallelFor is not reentrant and must only be called from one thread
/// at a time. The sharded engine honors this structurally: only its
/// pipeline thread dispatches. A violation (two dispatchers, or a task
/// calling back into the pool) is FASTPPR_CHECKed instead of corrupting
/// the generation protocol silently.
class ThreadPool {
 public:
  /// `num_threads` is the total parallelism: the calling thread plus
  /// num_threads - 1 workers. 0 is clamped to 1 (fully inline, no
  /// threads spawned).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Runs fn(0) ... fn(count - 1), returning when all calls completed.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop(std::size_t lane);
  void RunLane(std::size_t lane, uint64_t generation);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t task_count_ = 0;
  uint64_t generation_ = 0;
  std::size_t lanes_running_ = 0;
  bool shutdown_ = false;
  std::atomic<bool> dispatching_{false};  ///< reentrancy guard
};

}  // namespace fastppr

#endif  // FASTPPR_ENGINE_THREAD_POOL_H_
