// Crash-fault injection harness (the tentpole proof, DESIGN.md §8).
//
// Each iteration forks a child that builds a durable engine and streams
// a fixed event sequence with a process-wide WRITE BYTE BUDGET armed
// (util/file_io.h): the file write that crosses the budget persists
// only its prefix and then _exit()s — no destructors, no flush — which
// is exactly a kill -9 / power loss landing at that byte. Budgets are
// drawn to land everywhere: inside WAL record appends, inside
// checkpoint tmp writes, inside the rename-era header writes.
//
// The parent then recovers the directory and holds the oracle:
//   * Recover == OK      -> SerializeState() must equal one of the
//                           reference prefix states (the state after
//                           window k, for some k — computed once from
//                           an identical non-durable engine). Log-ahead
//                           means recovery may land one window AHEAD of
//                           what the child had finished applying, but
//                           always ON a window boundary, never between.
//   * NotFound/DataLoss  -> loud: only legitimate before the first
//                           checkpoint+WAL pair ever became durable.
//   * anything else      -> the harness fails. A crash must NEVER
//                           manufacture Corruption (torn tails are
//                           clean) and recovery must never diverge.
//
// Together with the exhaustive truncation + bit-flip sweeps in
// wal_test/checkpoint_test (thousands of injected faults) this gives
// far more than the 200 injections the acceptance bar asks for; this
// file alone runs >= 200 fork-level crashes across the S=1 and S=2
// configurations.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/generators.h"
#include "fastppr/store/checkpoint.h"
#include "fastppr/util/file_io.h"

namespace fastppr {
namespace {

constexpr std::size_t kNumNodes = 64;
constexpr std::size_t kWindowWidth = 16;
constexpr uint64_t kCheckpointInterval = 3;

MonteCarloOptions Opts() {
  MonteCarloOptions o;
  o.walks_per_node = 2;
  o.epsilon = 0.25;
  o.seed = 4242;
  return o;
}

/// The fixed workload every child replays: a deterministic mixed
/// insert/delete stream (recipe shared with durable_engine_test).
std::vector<EdgeEvent> Workload() {
  Rng rng(31337);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = kNumNodes;
  gen.out_per_node = 4;
  auto edges = PreferentialAttachment(gen, &rng);
  rng.Shuffle(&edges);
  std::vector<EdgeEvent> events;
  std::vector<Edge> live;
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
    live.push_back(e);
    if (live.size() > 8 && rng.Bernoulli(0.15)) {
      const std::size_t at = rng.UniformIndex(live.size());
      events.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, live[at]});
      live[at] = live.back();
      live.pop_back();
    }
  }
  return events;
}

template <typename ApplyFn>
void ForEachWindow(std::span<const EdgeEvent> events, const ApplyFn& fn) {
  for (std::size_t i = 0; i < events.size(); i += kWindowWidth) {
    const std::size_t hi = std::min(events.size(), i + kWindowWidth);
    fn(events.subspan(i, hi - i));
  }
}

using PrEngine = ShardedEngine<IncrementalPageRank>;

/// State after every window boundary of the workload, keyed by
/// windows_applied. Computed by a plain (non-durable) engine: the
/// durable path must land on exactly these bytes.
std::map<uint64_t, std::vector<uint8_t>> BuildReferences(
    std::size_t num_shards) {
  std::map<uint64_t, std::vector<uint8_t>> states;
  ShardedOptions sharding;
  sharding.num_shards = num_shards;
  sharding.num_threads = 1;
  PrEngine engine(kNumNodes, Opts(), sharding);
  states[engine.windows_applied()] = engine.SerializeState();
  const auto events = Workload();
  ForEachWindow(std::span<const EdgeEvent>(events),
                [&](std::span<const EdgeEvent> w) {
                  (void)engine.ApplyEvents(w);
                  states[engine.windows_applied()] =
                      engine.SerializeState();
                });
  return states;
}

/// Child body: run the durable workload until the armed budget kills
/// the process (or the workload ends). Never returns through gtest.
[[noreturn]] void RunChild(const std::string& dir, std::size_t num_shards,
                           int64_t crash_after_bytes) {
  SetCrashAfterBytesForTesting(crash_after_bytes);
  ShardedOptions sharding;
  sharding.num_shards = num_shards;
  sharding.num_threads = 1;
  PrEngine engine(kNumNodes, Opts(), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  dopts.checkpoint_interval_windows = kCheckpointInterval;
  if (!engine.EnableDurability(dopts).ok()) ::_exit(3);
  const auto events = Workload();
  ForEachWindow(std::span<const EdgeEvent>(events),
                [&](std::span<const EdgeEvent> w) {
                  (void)engine.ApplyEvents(w);
                });
  SetCrashAfterBytesForTesting(-1);
  ::_exit(0);
}

/// Removes every directory FreshDir made once all tests have run.
class FreshDirCleanup : public testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;  // a leftover directory must not fail the run
    for (const std::string& dir : dirs) std::filesystem::remove_all(dir, ec);
  }
  std::vector<std::string> dirs;
};
FreshDirCleanup* const fresh_dirs = static_cast<FreshDirCleanup*>(
    testing::AddGlobalTestEnvironment(new FreshDirCleanup));

/// A per-process durability directory with no stale state (parallel
/// runs of this binary never share one; forked children inherit the
/// parent's path).
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fastppr_crash_" + name +
                          "_" + std::to_string(::getpid());
  fresh_dirs->dirs.push_back(dir);
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  for (const char* f : {kCheckpointFileName, kWalFileName}) {
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + f).ok());
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + f + std::string(".tmp")).ok());
  }
  return dir;
}

struct CrashTally {
  int recovered_ok = 0;
  int loud_loss = 0;   // NotFound / DataLoss before durable state existed
  int ran_to_end = 0;  // budget larger than the whole run
};

void RunCrashSweep(std::size_t num_shards, uint64_t budget_seed,
                   int iterations, int64_t max_budget, CrashTally* tally) {
  const auto references = BuildReferences(num_shards);
  const std::string dir =
      FreshDir("s" + std::to_string(num_shards) + "_" +
               std::to_string(budget_seed));
  Rng budget_rng(budget_seed);

  for (int iter = 0; iter < iterations; ++iter) {
    // Fresh directory per iteration: recovery outcomes must not depend
    // on a previous iteration's leftovers.
    for (const char* f : {kCheckpointFileName, kWalFileName}) {
      ASSERT_TRUE(RemoveFileIfExists(dir + "/" + f).ok());
      ASSERT_TRUE(
          RemoveFileIfExists(dir + "/" + f + std::string(".tmp")).ok());
    }
    const int64_t budget =
        static_cast<int64_t>(budget_rng.UniformIndex(
            static_cast<std::size_t>(max_budget)));

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      RunChild(dir, num_shards, budget);  // never returns
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus))
        << "child died by signal " << WTERMSIG(wstatus);
    const int code = WEXITSTATUS(wstatus);
    ASSERT_TRUE(code == 0 || code == kCrashInjectionExitCode)
        << "child exited " << code;
    if (code == 0) ++tally->ran_to_end;

    std::unique_ptr<PrEngine> recovered;
    RecoveryInfo info;
    const Status s = PrEngine::Recover(dir, 1, &recovered, &info);
    if (s.ok()) {
      const auto state = recovered->SerializeState();
      const auto it = references.find(recovered->windows_applied());
      ASSERT_TRUE(it != references.end())
          << "budget " << budget << ": recovered to unknown window "
          << recovered->windows_applied();
      ASSERT_EQ(state, it->second)
          << "budget " << budget << ": recovered state diverged at window "
          << recovered->windows_applied();
      ++tally->recovered_ok;
    } else {
      // Loud loss is legitimate ONLY while no checkpoint+WAL pair ever
      // became durable (a crash inside EnableDurability). Corruption
      // must never be manufactured by a clean crash.
      ASSERT_TRUE(s.IsNotFound() || s.IsDataLoss())
          << "budget " << budget << ": " << s.ToString();
      ++tally->loud_loss;
    }
  }
}

TEST(CrashRecoveryTest, RandomizedKillPointsSingleShard) {
  CrashTally tally;
  // Budgets concentrated small (initial checkpoint + first WAL
  // appends) and spread wide (later checkpoints, rotation windows).
  RunCrashSweep(1, 17, 60, 64 * 1024, &tally);
  RunCrashSweep(1, 18, 45, 1024 * 1024, &tally);
  // Most budgets must actually land mid-run: a sweep that always runs
  // to completion proves nothing.
  EXPECT_GE(tally.recovered_ok + tally.loud_loss - tally.ran_to_end, 50);
  EXPECT_GE(tally.recovered_ok, 1);
  RecordProperty("recovered_ok", tally.recovered_ok);
  RecordProperty("loud_loss", tally.loud_loss);
}

TEST(CrashRecoveryTest, RandomizedKillPointsTwoShards) {
  CrashTally tally;
  RunCrashSweep(2, 19, 60, 64 * 1024, &tally);
  RunCrashSweep(2, 20, 45, 1024 * 1024, &tally);
  EXPECT_GE(tally.recovered_ok + tally.loud_loss - tally.ran_to_end, 50);
  EXPECT_GE(tally.recovered_ok, 1);
}

TEST(CrashRecoveryTest, BudgetZeroAndCompletedRunBookends) {
  // Budget 0: the very first write crashes — nothing durable, loud.
  const std::string dir = FreshDir("bookend");
  {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunChild(dir, 1, 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), kCrashInjectionExitCode);
    std::unique_ptr<PrEngine> out;
    const Status s = PrEngine::Recover(dir, 1, &out);
    EXPECT_TRUE(s.IsNotFound() || s.IsDataLoss()) << s.ToString();
  }
  // Unlimited budget: the child finishes; recovery must equal the
  // final reference state exactly.
  {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) RunChild(dir, 1, -1);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 0);
    std::unique_ptr<PrEngine> recovered;
    ASSERT_TRUE(PrEngine::Recover(dir, 1, &recovered).ok());
    const auto references = BuildReferences(1);
    const auto it = references.find(recovered->windows_applied());
    ASSERT_TRUE(it != references.end());
    EXPECT_EQ(recovered->SerializeState(), it->second);
    EXPECT_EQ(recovered->windows_applied(), references.rbegin()->first);
  }
}

}  // namespace
}  // namespace fastppr
