// Durability subsystem cost (DESIGN.md §8): what the WAL + checkpoint
// layer charges the ingestion path, and how fast a crashed store comes
// back.
//
//   * wal_overhead_pct          — ingestion slowdown with an fsync'd WAL
//                                 record per window vs the same engine
//                                 without durability (target: < 15% at
//                                 production window sizes);
//   * checkpoint_write_mb_s     — serialized arena bytes through the
//                                 tmp + fsync + rename protocol;
//   * checkpoint_rss_growth_mb  — peak VmRSS during one Checkpoint()
//                                 minus VmRSS just before it (a thread
//                                 samples /proc/self/statm every
//                                 ~200 us): the checkpoint streams from
//                                 the arenas, so in full mode this must
//                                 stay under a quarter of the file;
//   * recovery_ms               — crash-to-serving latency from a recent
//                                 checkpoint plus a short WAL tail;
//   * wal_replay_events_per_sec — replay throughput when recovery has to
//                                 re-ingest the whole stream from the log
//                                 (checkpoint taken at window 0 only).
//
//   bench_durability [--smoke] [--json <path>]
//
// --smoke shrinks the stream to CI size so the report path is exercised
// on every push.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/generators.h"
#include "fastppr/store/checkpoint.h"
#include "fastppr/util/check.h"
#include "fastppr/util/table_printer.h"
#include "fastppr/util/timer.h"

using namespace fastppr;
using namespace fastppr::bench;

namespace {

using PrEngine = ShardedEngine<IncrementalPageRank>;

std::vector<EdgeEvent> PowerLawEvents(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = 10;
  auto edges = PreferentialAttachment(gen, &rng);
  rng.Shuffle(&edges);
  std::vector<EdgeEvent> events;
  events.reserve(edges.size());
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  return events;
}

/// bench_common's shared window loop, bound to an engine.
double TimeEngineWindows(PrEngine* engine,
                         const std::vector<EdgeEvent>& events,
                         std::size_t window) {
  return TimeWindows(events, window, [&](std::span<const EdgeEvent> w) {
    return engine->ApplyEvents(w);
  });
}

/// VmRSS of this process in bytes (/proc/self/statm), 0 if unreadable.
std::size_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// Peak VmRSS while `run` executes minus VmRSS just before it, sampled
/// by a thread every ~200 us.
template <typename F>
std::size_t PeakRssGrowthBytes(const F& run) {
  const std::size_t before = CurrentRssBytes();
  std::atomic<bool> done{false};
  std::size_t peak = before;  // written by the sampler until joined
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      peak = std::max(peak, CurrentRssBytes());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  run();
  done.store(true, std::memory_order_relaxed);
  sampler.join();
  peak = std::max(peak, CurrentRssBytes());
  return peak - before;
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  FASTPPR_CHECK(!ec);
  return dir;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  Banner("Durability: WAL overhead, checkpoint bandwidth, restart latency",
         "the production PageRank Store deployment of Bahmani et al., "
         "VLDB 2010 (Section 1.1)");

  const std::size_t n = smoke ? 2000 : 20000;
  const std::size_t R = 5;
  const double eps = 0.2;
  const std::size_t window = smoke ? 512 : 4096;

  const auto events = PowerLawEvents(n, 77);
  std::printf("power-law stream: n=%zu, m=%zu insertions, R=%zu, "
              "eps=%.2f, window=%zu%s\n\n",
              n, events.size(), R, eps, window, smoke ? " (smoke)" : "");

  MonteCarloOptions mc;
  mc.walks_per_node = R;
  mc.epsilon = eps;
  mc.seed = 90;
  ShardedOptions sharding;
  sharding.num_shards = 1;
  sharding.num_threads = 1;

  JsonReport report("durability");
  report.Add("num_nodes", static_cast<double>(n));
  report.Add("num_events", static_cast<double>(events.size()));
  report.Add("window", static_cast<double>(window));
  report.Add("smoke", smoke ? 1.0 : 0.0);

  // --- Ingestion with and without the log. Best of two fresh runs each;
  // determinism makes the reps bit-identical, so the spread is noise.
  const double base_eps_sec = BestOfTwo([&] {
    PrEngine engine(n, mc, sharding);
    return TimeEngineWindows(&engine, events, window);
  });

  const std::string wal_dir = FreshDir("fastppr_bench_durability_wal");
  std::unique_ptr<PrEngine> durable_holder;
  const double durable_eps_sec = BestOfTwo([&] {
    durable_holder = std::make_unique<PrEngine>(n, mc, sharding);
    DurabilityOptions dopts;
    dopts.directory = wal_dir;
    dopts.checkpoint_interval_windows = 0;  // log only; no mid-stream ckpt
    FASTPPR_CHECK(durable_holder->EnableDurability(dopts).ok());
    return TimeEngineWindows(durable_holder.get(), events, window);
  });
  const double wal_overhead_pct =
      100.0 * (base_eps_sec - durable_eps_sec) / base_eps_sec;

  // --- Checkpoint bandwidth: serialize + fsync + rename the full arena
  // state of the loaded engine.
  const double ckpt_sec = BestOfN(3, [&] {
    WallTimer timer;
    FASTPPR_CHECK(durable_holder->Checkpoint().ok());
    return 1.0 / timer.ElapsedSeconds();
  });
  std::error_code ec;
  const auto ckpt_bytes = std::filesystem::file_size(
      std::filesystem::path(wal_dir) / kCheckpointFileName, ec);
  FASTPPR_CHECK(!ec);
  const double checkpoint_write_mb_s =
      static_cast<double>(ckpt_bytes) / (1024.0 * 1024.0) * ckpt_sec;

  // --- Memory: what one checkpoint adds to the resident set.
  const std::size_t ckpt_rss_growth = PeakRssGrowthBytes(
      [&] { FASTPPR_CHECK(durable_holder->Checkpoint().ok()); });
  const double checkpoint_rss_growth_mb =
      static_cast<double>(ckpt_rss_growth) / (1024.0 * 1024.0);

  // --- Restart latency from that fresh checkpoint (empty WAL tail).
  double recovery_ms = 0.0;
  {
    WallTimer timer;
    std::unique_ptr<PrEngine> recovered;
    RecoveryInfo info;
    FASTPPR_CHECK(PrEngine::Recover(wal_dir, 1, &recovered, &info).ok());
    recovery_ms = timer.ElapsedSeconds() * 1e3;
    FASTPPR_CHECK(recovered->windows_applied() ==
                  durable_holder->windows_applied());
    FASTPPR_CHECK(info.replayed_windows == 0);
  }

  // --- Replay throughput: recover a directory whose only checkpoint
  // predates the whole stream, so recovery re-ingests every window from
  // the log.
  const std::string replay_dir =
      FreshDir("fastppr_bench_durability_replay");
  {
    PrEngine engine(n, mc, sharding);
    DurabilityOptions dopts;
    dopts.directory = replay_dir;
    dopts.checkpoint_interval_windows = 0;
    FASTPPR_CHECK(engine.EnableDurability(dopts).ok());
    TimeEngineWindows(&engine, events, window);
  }
  double wal_replay_events_per_sec = 0.0;
  uint64_t replayed_events = 0;
  {
    WallTimer timer;
    std::unique_ptr<PrEngine> recovered;
    RecoveryInfo info;
    FASTPPR_CHECK(
        PrEngine::Recover(replay_dir, 1, &recovered, &info).ok());
    const double sec = timer.ElapsedSeconds();
    replayed_events = info.replayed_events;
    wal_replay_events_per_sec =
        static_cast<double>(info.replayed_events) / sec;
  }

  TablePrinter table({"metric", "value"});
  table.AddRow({"ingest events/sec (no durability)",
                TablePrinter::Fmt(base_eps_sec, 0)});
  table.AddRow({"ingest events/sec (WAL, fsync/window)",
                TablePrinter::Fmt(durable_eps_sec, 0)});
  table.AddRow({"WAL overhead %", TablePrinter::Fmt(wal_overhead_pct, 2)});
  table.AddRow({"checkpoint MB", TablePrinter::Fmt(
                                     static_cast<double>(ckpt_bytes) /
                                         (1024.0 * 1024.0),
                                     2)});
  table.AddRow({"checkpoint write MB/s",
                TablePrinter::Fmt(checkpoint_write_mb_s, 1)});
  table.AddRow({"checkpoint RSS growth MB",
                TablePrinter::Fmt(checkpoint_rss_growth_mb, 2)});
  table.AddRow({"recovery ms (fresh checkpoint)",
                TablePrinter::Fmt(recovery_ms, 2)});
  table.AddRow({"WAL replay events (full-log recovery)",
                std::to_string(replayed_events)});
  table.AddRow({"WAL replay events/sec",
                TablePrinter::Fmt(wal_replay_events_per_sec, 0)});
  table.Print();

  report.Add("base_events_per_sec", base_eps_sec);
  report.Add("durable_events_per_sec", durable_eps_sec);
  report.Add("wal_overhead_pct", wal_overhead_pct);
  report.Add("checkpoint_bytes", static_cast<double>(ckpt_bytes));
  report.Add("checkpoint_write_mb_s", checkpoint_write_mb_s);
  report.Add("checkpoint_rss_growth_mb", checkpoint_rss_growth_mb);
  report.Add("recovery_ms", recovery_ms);
  report.Add("wal_replay_events_per_sec", wal_replay_events_per_sec);
  report.WriteTo(JsonPathFromArgs(argc, argv,
                                  ResultsDir() + "/BENCH_durability.json"));
  // The smoke body (a few MB) is too small to tell the 1 MiB staging
  // buffer from a body-sized copy, so only the full run holds the bound.
  if (!smoke) {
    FASTPPR_CHECK_MSG(ckpt_rss_growth * 4 < ckpt_bytes,
                      "a checkpoint grew RSS by a quarter of its file or "
                      "more: is the body buffered?");
  }
  return 0;
}
