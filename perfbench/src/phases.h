#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

// The measured phases every workload is built from, shared by the
// workload runner (workloads.cc) and the traced run's layer ledger
// (layers.cc).

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// One write phase: every window's ack and visibility latency from its
/// scheduled instant (closed loop: the instant the writer sent it).
/// Failed windows read +inf.
struct WriteResult {
  std::vector<double> ack_ms;
  std::vector<double> visible_ms;
  std::vector<double> call_ms;      ///< Ingest() call spans
  std::vector<double> lateness_ms;  ///< open loop: sent - scheduled
  uint64_t events = 0;
  uint64_t failed = 0;
  double seconds = 0.0;             ///< first send -> Quiesce() returned
  /// The program's CPU time over the phase: the process's, less the
  /// serving tier's threads and the benchmark's own pollers and pacer.
  uint64_t cpu_ns = 0;
  std::string first_error;
};

/// One read phase: latency from submit (open loop: scheduled arrival)
/// to on_done, +inf for any non-OK answer.
struct ReadResult {
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;     ///< Response::queue_ns, OK answers
  std::vector<double> service_ms;   ///< Response::service_ns, OK answers
  std::vector<double> lateness_ms;  ///< open loop: submit - scheduled
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t bad_answers = 0;         ///< OK but multi-epoch/degraded/empty
  double seconds = 0.0;
  /// CPU time of the serving tier's threads and of the threads that
  /// submit the queries (Submit probes the result cache and answers a
  /// hit inline) over the phase.
  uint64_t cpu_ns = 0;
  std::string first_bad;
  std::string first_failure;

  /// Accounts one resolved request answered at `done_ns`, submitted
  /// (or scheduled) at `start_ns`.
  void Record(const fastppr::serve::Response& resp, uint64_t start_ns,
              uint64_t done_ns);
};

/// Repair work over the write phase, windows [0, cfg.windows)
/// (lifetime_stats deltas).
struct RepairDelta {
  fastppr::WalkUpdateStats before;
  fastppr::WalkUpdateStats after;
};

/// The traced run's per-layer metrics (layers.cc). `d` is the live
/// deployment after the workload; `write`/`read` are its phases.
void MeasureLayers(const Config& cfg, const Inputs& in, Deployment* d,
                   const WriteResult& write, const ReadResult& read,
                   const RepairDelta& repair, Tracer* tracer,
                   Report* report);

/// Replays of the write phase's windows through the WAL, the graph and
/// a flat single-threaded engine, after the deployment is gone.
void MeasureReplays(const Config& cfg, const Inputs& in, Tracer* tracer,
                    Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
