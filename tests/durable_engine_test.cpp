// Durable ShardedEngine tests (engine/sharded_engine.h + store/wal.h +
// store/checkpoint.h): the tentpole oracle is BIT-IDENTICAL recovery —
// SerializeState() of a recovered engine equals the live engine's, at
// S = 1 and S = 4, for PageRank and SALSA, across checkpoint rotations
// — plus the loud-failure taxonomy (NotFound / DataLoss / Corruption)
// for every way a durability directory can be incomplete.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/generators.h"
#include "fastppr/store/checkpoint.h"
#include "fastppr/util/file_io.h"

namespace fastppr {
namespace {

MonteCarloOptions Opts(uint64_t seed) {
  MonteCarloOptions o;
  o.walks_per_node = 3;
  o.epsilon = 0.2;
  o.seed = seed;
  return o;
}

/// Reproducible mixed insert/delete stream (same recipe as
/// sharded_engine_test).
std::vector<EdgeEvent> MixedStream(std::size_t n, uint64_t seed,
                                   double p_delete) {
  Rng rng(seed);
  PreferentialAttachmentOptions gen;
  gen.num_nodes = n;
  gen.out_per_node = 4;
  auto edges = PreferentialAttachment(gen, &rng);
  rng.Shuffle(&edges);

  std::vector<EdgeEvent> events;
  std::vector<Edge> live;
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
    live.push_back(e);
    if (live.size() > 10 && rng.Bernoulli(p_delete)) {
      const std::size_t at = rng.UniformIndex(live.size());
      events.push_back(EdgeEvent{EdgeEvent::Kind::kDelete, live[at]});
      live[at] = live.back();
      live.pop_back();
    }
  }
  return events;
}

/// Splits `events` into windows of `width` and applies each.
template <typename EngineT>
void ApplyInWindows(EngineT* engine, std::span<const EdgeEvent> events,
                    std::size_t width) {
  for (std::size_t i = 0; i < events.size(); i += width) {
    const std::size_t hi = std::min(events.size(), i + width);
    const Status s =
        engine->ApplyEvents(events.subspan(i, hi - i));
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
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

/// A per-test, per-process durability directory with no stale state
/// (parallel runs of this binary never share one).
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fastppr_dur_" + name +
                          "_" + std::to_string(::getpid());
  fresh_dirs->dirs.push_back(dir);
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  for (const char* f : {kCheckpointFileName, kWalFileName}) {
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + f).ok());
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + f + std::string(".tmp")).ok());
  }
  return dir;
}

template <typename EngineT>
void ExpectBitIdenticalRecovery(const std::string& tag,
                                std::size_t num_shards,
                                uint64_t checkpoint_interval) {
  const std::size_t n = 120;
  const auto events = MixedStream(n, 1234, 0.15);
  const std::string dir = FreshDir(tag);

  ShardedOptions sharding;
  sharding.num_shards = num_shards;
  ShardedEngine<EngineT> live(n, Opts(99), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  dopts.checkpoint_interval_windows = checkpoint_interval;
  ASSERT_TRUE(live.EnableDurability(dopts).ok());

  // An uneven window width exercises both rotated-away WAL records and
  // a replayable tail.
  ApplyInWindows(&live, std::span<const EdgeEvent>(events), 37);

  std::unique_ptr<ShardedEngine<EngineT>> recovered;
  RecoveryInfo info;
  const Status rs =
      ShardedEngine<EngineT>::Recover(dir, 2, &recovered, &info);
  ASSERT_TRUE(rs.ok()) << rs.ToString();

  EXPECT_EQ(recovered->windows_applied(), live.windows_applied());
  EXPECT_EQ(info.checkpoint_window + info.replayed_windows,
            live.windows_applied());
  ASSERT_EQ(recovered->SerializeState(), live.SerializeState())
      << tag << ": recovered state diverged";

  // The recovered engine must also BEHAVE identically: the same future
  // windows produce the same state (RNG streams, slab layout and
  // counters all resumed exactly).
  const auto more = MixedStream(n, 777, 0.1);
  const std::span<const EdgeEvent> tail(more.data(),
                                        std::min<std::size_t>(200, more.size()));
  ApplyInWindows(&live, tail, 23);
  ApplyInWindows(recovered.get(), tail, 23);
  ASSERT_EQ(recovered->SerializeState(), live.SerializeState())
      << tag << ": divergence after post-recovery ingestion";

  // Recovery is read-only and therefore idempotent.
  std::unique_ptr<ShardedEngine<EngineT>> again;
  ASSERT_TRUE(ShardedEngine<EngineT>::Recover(dir, 1, &again).ok());
  EXPECT_EQ(again->SerializeState(), recovered->SerializeState());

  // Checkpoint() streams the body from the arenas into the file; it
  // must be byte for byte the oracle's one-vector body.
  ASSERT_TRUE(live.Checkpoint().ok());
  std::vector<uint8_t> body;
  ASSERT_TRUE(
      ReadFramedFile(dir + "/" + kCheckpointFileName, kCheckpointMagic, &body)
          .ok());
  ASSERT_EQ(body, live.SerializeState())
      << tag << ": streamed checkpoint body differs from SerializeState()";
}

TEST(DurableEngineTest, PageRankBitIdenticalOneShard) {
  ExpectBitIdenticalRecovery<IncrementalPageRank>("pr_s1", 1, 4);
}

TEST(DurableEngineTest, PageRankBitIdenticalFourShards) {
  ExpectBitIdenticalRecovery<IncrementalPageRank>("pr_s4", 4, 4);
}

TEST(DurableEngineTest, SalsaBitIdenticalOneShard) {
  ExpectBitIdenticalRecovery<IncrementalSalsa>("salsa_s1", 1, 4);
}

TEST(DurableEngineTest, SalsaBitIdenticalFourShards) {
  ExpectBitIdenticalRecovery<IncrementalSalsa>("salsa_s4", 4, 4);
}

TEST(DurableEngineTest, WalOnlyTailWithoutIntermediateCheckpoints) {
  // interval 0: the only checkpoint is EnableDurability's initial one,
  // so recovery replays the entire stream from the WAL.
  ExpectBitIdenticalRecovery<IncrementalPageRank>("pr_walonly", 2, 0);
}

TEST(DurableEngineTest, RecoveredThreadCountIsFree) {
  // The determinism contract extends through recovery: a recovered
  // engine with a different worker thread count is still bit-identical.
  const std::size_t n = 80;
  const auto events = MixedStream(n, 5, 0.1);
  const std::string dir = FreshDir("threads");

  ShardedOptions sharding;
  sharding.num_shards = 4;
  sharding.num_threads = 4;
  ShardedEngine<IncrementalPageRank> live(n, Opts(3), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  ASSERT_TRUE(live.EnableDurability(dopts).ok());
  ApplyInWindows(&live, std::span<const EdgeEvent>(events), 50);

  std::unique_ptr<ShardedEngine<IncrementalPageRank>> recovered;
  ASSERT_TRUE(
      ShardedEngine<IncrementalPageRank>::Recover(dir, 1, &recovered).ok());
  EXPECT_EQ(recovered->SerializeState(), live.SerializeState());
}

TEST(DurableEngineTest, RejectedEventsReplayIdentically) {
  // A window with an out-of-range edge is rejected mid-stream; the
  // applied prefix (and its repairs) must recover bit-identically.
  const std::size_t n = 40;
  const std::string dir = FreshDir("rejects");
  ShardedOptions sharding;
  sharding.num_shards = 2;
  ShardedEngine<IncrementalPageRank> live(n, Opts(11), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  ASSERT_TRUE(live.EnableDurability(dopts).ok());

  const auto good = MixedStream(n, 21, 0.0);
  ASSERT_TRUE(
      live.ApplyEvents(std::span<const EdgeEvent>(good.data(), 30)).ok());
  std::vector<EdgeEvent> bad(good.begin() + 30, good.begin() + 40);
  bad.insert(bad.begin() + 5,
             EdgeEvent{EdgeEvent::Kind::kInsert,
                       Edge{static_cast<NodeId>(n + 7), 0}});
  EXPECT_FALSE(live.ApplyEvents(std::span<const EdgeEvent>(bad)).ok());

  std::unique_ptr<ShardedEngine<IncrementalPageRank>> recovered;
  const Status rs =
      ShardedEngine<IncrementalPageRank>::Recover(dir, 2, &recovered);
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  EXPECT_EQ(recovered->SerializeState(), live.SerializeState());
}

TEST(DurableEngineTest, MissingEverythingIsNotFound) {
  const std::string dir = FreshDir("nothing");
  std::unique_ptr<ShardedEngine<IncrementalPageRank>> out;
  const Status s =
      ShardedEngine<IncrementalPageRank>::Recover(dir, 1, &out);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST(DurableEngineTest, MissingOneFileIsDataLoss) {
  for (const bool drop_wal : {true, false}) {
    const std::string dir =
        FreshDir(drop_wal ? "drop_wal" : "drop_ckpt");
    ShardedOptions sharding;
    sharding.num_shards = 1;
    ShardedEngine<IncrementalPageRank> live(30, Opts(1), sharding);
    DurabilityOptions dopts;
    dopts.directory = dir;
    ASSERT_TRUE(live.EnableDurability(dopts).ok());
    const auto events = MixedStream(30, 2, 0.0);
    ASSERT_TRUE(
        live.ApplyEvents(std::span<const EdgeEvent>(events.data(), 20))
            .ok());

    const std::string victim =
        dir + "/" + (drop_wal ? kWalFileName : kCheckpointFileName);
    ASSERT_TRUE(RemoveFileIfExists(victim).ok());

    std::unique_ptr<ShardedEngine<IncrementalPageRank>> out;
    const Status s =
        ShardedEngine<IncrementalPageRank>::Recover(dir, 1, &out);
    EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  }
}

TEST(DurableEngineTest, WrongEngineTypeIsCorruption) {
  const std::string dir = FreshDir("wrong_type");
  ShardedOptions sharding;
  sharding.num_shards = 1;
  ShardedEngine<IncrementalPageRank> live(30, Opts(1), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  ASSERT_TRUE(live.EnableDurability(dopts).ok());

  std::unique_ptr<ShardedEngine<IncrementalSalsa>> out;
  const Status s =
      ShardedEngine<IncrementalSalsa>::Recover(dir, 1, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(DurableEngineTest, FlippedCheckpointBitIsCorruptionAtEngineLevel) {
  const std::string dir = FreshDir("engine_flip");
  ShardedOptions sharding;
  sharding.num_shards = 2;
  ShardedEngine<IncrementalPageRank> live(60, Opts(8), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  ASSERT_TRUE(live.EnableDurability(dopts).ok());
  const auto events = MixedStream(60, 13, 0.1);
  ApplyInWindows(&live, std::span<const EdgeEvent>(events.data(), 100), 25);

  const std::string ckpt = dir + "/" + kCheckpointFileName;
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(ckpt, &bytes).ok());
  // A handful of scattered flips (the exhaustive sweep lives in
  // checkpoint_test; here we assert the engine surfaces it).
  for (const std::size_t at :
       {std::size_t{0}, bytes.size() / 3, bytes.size() - 1}) {
    std::vector<uint8_t> copy = bytes;
    copy[at] ^= 0x10;
    WritableFile f;
    ASSERT_TRUE(WritableFile::Open(ckpt + ".tmp", &f).ok());
    ASSERT_TRUE(f.Append(copy.data(), copy.size()).ok());
    ASSERT_TRUE(f.Close().ok());
    ASSERT_TRUE(AtomicReplace(ckpt + ".tmp", ckpt).ok());

    std::unique_ptr<ShardedEngine<IncrementalPageRank>> out;
    const Status s =
        ShardedEngine<IncrementalPageRank>::Recover(dir, 1, &out);
    EXPECT_TRUE(s.IsCorruption()) << "flip at " << at << ": "
                                  << s.ToString();
  }
}

TEST(DurableEngineTest, CheckpointOfAnotherVersionIsCorruption) {
  // An intact checkpoint whose header names another layout version is
  // refused even beside a valid WAL: its body would misparse.
  const std::string dir = FreshDir("other_version");
  ShardedOptions sharding;
  sharding.num_shards = 2;
  ShardedEngine<IncrementalPageRank> live(60, Opts(8), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  ASSERT_TRUE(live.EnableDurability(dopts).ok());
  const auto events = MixedStream(60, 17, 0.1);
  ApplyInWindows(&live, std::span<const EdgeEvent>(events.data(), 100), 25);

  const std::string ckpt = dir + "/" + kCheckpointFileName;
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(ckpt, &bytes).ok());
  const uint32_t other = 2;  // header: u64 magic | u32 version | ...
  ASSERT_NE(other, kCheckpointVersion);
  std::memcpy(bytes.data() + sizeof(uint64_t), &other, sizeof(other));
  WritableFile f;
  ASSERT_TRUE(WritableFile::Open(ckpt + ".tmp", &f).ok());
  ASSERT_TRUE(f.Append(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(f.Close().ok());
  ASSERT_TRUE(AtomicReplace(ckpt + ".tmp", ckpt).ok());

  std::unique_ptr<ShardedEngine<IncrementalPageRank>> out;
  const Status s = ShardedEngine<IncrementalPageRank>::Recover(dir, 1, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("unsupported version"), std::string::npos)
      << s.ToString();
}

TEST(DurableEngineTest, FailedWalAppendStopsIngestUntilCheckpoint) {
  // A WAL append that fails mid-record (ENOSPC, EIO) leaves a torn
  // prefix in the log. The engine must refuse that window AND every
  // later one before touching any state — a record appended behind the
  // tear would make the log unreadable — so recovery lands on exactly
  // the acked windows. A checkpoint rotates to a fresh log and ingest
  // resumes. Tears at several offsets cover the record head and the
  // payload.
  const std::size_t n = 80;
  const auto events = MixedStream(n, 4321, 0.15);
  constexpr std::size_t kWidth = 29;
  for (const int64_t tear : {int64_t{3}, int64_t{14}, int64_t{57}}) {
    SCOPED_TRACE("tear at byte " + std::to_string(tear));
    const std::string dir = FreshDir("fail_stop_" + std::to_string(tear));
    ShardedOptions sharding;
    sharding.num_shards = 2;
    ShardedEngine<IncrementalPageRank> live(n, Opts(5), sharding);
    DurabilityOptions dopts;
    dopts.directory = dir;
    dopts.checkpoint_interval_windows = 0;  // explicit Checkpoint() only
    ASSERT_TRUE(live.EnableDurability(dopts).ok());
    const auto window = [&](std::size_t w) {
      return std::span<const EdgeEvent>(events.data() + w * kWidth, kWidth);
    };
    for (std::size_t w = 0; w < 3; ++w) {
      ASSERT_TRUE(live.ApplyEvents(window(w)).ok());
    }
    const std::vector<uint8_t> acked = live.SerializeState();

    // Window 3's record tears `tear` bytes in; windows 3 and 4 (and a
    // retry of 3) fail and change nothing.
    SetFailAfterBytesForTesting(tear);
    const Status torn = live.ApplyEvents(window(3));
    SetFailAfterBytesForTesting(-1);
    EXPECT_EQ(torn.code(), Status::Code::kIOError) << torn.ToString();
    EXPECT_EQ(live.ApplyEvents(window(4)).code(), Status::Code::kIOError);
    EXPECT_EQ(live.ApplyEvents(window(3)).code(), Status::Code::kIOError);
    EXPECT_EQ(live.windows_applied(), 3u);
    ASSERT_EQ(live.SerializeState(), acked)
        << "a refused window changed the engine";

    // The log holds the acked records plus a torn tail: recovery trims
    // the tail and lands on exactly the acked windows.
    std::unique_ptr<ShardedEngine<IncrementalPageRank>> recovered;
    RecoveryInfo info;
    const Status rs = ShardedEngine<IncrementalPageRank>::Recover(
        dir, 1, &recovered, &info);
    ASSERT_TRUE(rs.ok()) << rs.ToString();
    EXPECT_EQ(info.replayed_windows, 3u);
    ASSERT_EQ(recovered->SerializeState(), acked);

    // A checkpoint rotates to a fresh log; ingest resumes with the
    // refused window, and recovery follows it.
    ASSERT_TRUE(live.Checkpoint().ok());
    ASSERT_TRUE(live.ApplyEvents(window(3)).ok());
    ASSERT_TRUE(live.ApplyEvents(window(4)).ok());
    ASSERT_TRUE(ShardedEngine<IncrementalPageRank>::Recover(dir, 1,
                                                            &recovered)
                    .ok());
    EXPECT_EQ(recovered->SerializeState(), live.SerializeState());
  }
}

TEST(DurableEngineTest, FailedWalSyncStopsIngestUntilCheckpoint) {
  // A failed fsync (EIO) refuses the window, yet the record it failed
  // to sync is complete in the log and may still reach the disk. The
  // WAL cuts that record back out before it poisons itself, so the log
  // matches what callers were told: refused windows change nothing,
  // recovery lands on exactly the acked windows, and ingest resumes
  // after a checkpoint rotates to a fresh log.
  const std::size_t n = 80;
  const auto events = MixedStream(n, 8765, 0.15);
  constexpr std::size_t kWidth = 29;
  const std::string dir = FreshDir("fail_sync");
  ShardedOptions sharding;
  sharding.num_shards = 2;
  ShardedEngine<IncrementalPageRank> live(n, Opts(5), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  dopts.checkpoint_interval_windows = 0;  // explicit Checkpoint() only
  ASSERT_TRUE(live.EnableDurability(dopts).ok());
  const auto window = [&](std::size_t w) {
    return std::span<const EdgeEvent>(events.data() + w * kWidth, kWidth);
  };
  for (std::size_t w = 0; w < 3; ++w) {
    ASSERT_TRUE(live.ApplyEvents(window(w)).ok());
  }
  const std::vector<uint8_t> acked = live.SerializeState();

  // Window 3's record is appended whole, then its fsync fails; windows
  // 3 and 4 (and a retry of 3) fail and change nothing.
  SetFailNextSyncForTesting();
  const Status failed = live.ApplyEvents(window(3));
  EXPECT_EQ(failed.code(), Status::Code::kIOError) << failed.ToString();
  EXPECT_EQ(live.ApplyEvents(window(4)).code(), Status::Code::kIOError);
  EXPECT_EQ(live.ApplyEvents(window(3)).code(), Status::Code::kIOError);
  EXPECT_EQ(live.windows_applied(), 3u);
  ASSERT_EQ(live.SerializeState(), acked)
      << "a refused window changed the engine";

  // The log holds exactly the acked records: recovery replays those and
  // not the refused one.
  std::unique_ptr<ShardedEngine<IncrementalPageRank>> recovered;
  RecoveryInfo info;
  const Status rs = ShardedEngine<IncrementalPageRank>::Recover(
      dir, 1, &recovered, &info);
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  EXPECT_EQ(info.replayed_windows, 3u);
  ASSERT_EQ(recovered->SerializeState(), acked)
      << "recovery replayed a window the caller was told failed";

  // A checkpoint rotates to a fresh log; ingest resumes with the
  // refused window, and recovery follows it.
  ASSERT_TRUE(live.Checkpoint().ok());
  ASSERT_TRUE(live.ApplyEvents(window(3)).ok());
  ASSERT_TRUE(live.ApplyEvents(window(4)).ok());
  ASSERT_TRUE(ShardedEngine<IncrementalPageRank>::Recover(dir, 1,
                                                          &recovered)
                  .ok());
  EXPECT_EQ(recovered->SerializeState(), live.SerializeState());
}

TEST(DurableEngineTest, FailedPeriodicCheckpointLeavesTheWindowOk) {
  // A periodic checkpoint runs after its window is applied and logged,
  // and the previous checkpoint plus the unrotated WAL still cover that
  // window, so a failed checkpoint must not fail the window: a caller
  // who retried it would apply it twice. The failure is counted, and
  // the next window's checkpoint retries and rotates the log.
  const std::size_t n = 80;
  const auto events = MixedStream(n, 2468, 0.15);
  constexpr std::size_t kWidth = 29;
  const std::string dir = FreshDir("fail_periodic_ckpt");
  ShardedOptions sharding;
  sharding.num_shards = 2;
  ShardedEngine<IncrementalPageRank> live(n, Opts(6), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  dopts.checkpoint_interval_windows = 4;
  ASSERT_TRUE(live.EnableDurability(dopts).ok());
  const auto window = [&](std::size_t w) {
    return std::span<const EdgeEvent>(events.data() + w * kWidth, kWidth);
  };
  for (std::size_t w = 0; w < 3; ++w) {
    ASSERT_TRUE(live.ApplyEvents(window(w)).ok());
  }
  const obs::Counter* failures = live.metric_handles().checkpoint_failures;

  // Window 3's WAL record (under 300 bytes) fits the budget; the
  // checkpoint it triggers does not.
  SetFailAfterBytesForTesting(2000);
  const Status s = live.ApplyEvents(window(3));
  SetFailAfterBytesForTesting(-1);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(live.windows_applied(), 4u);
  EXPECT_EQ(failures->Value(), 1u);

  std::unique_ptr<ShardedEngine<IncrementalPageRank>> recovered;
  RecoveryInfo info;
  ASSERT_TRUE(ShardedEngine<IncrementalPageRank>::Recover(dir, 1,
                                                          &recovered, &info)
                  .ok());
  EXPECT_EQ(info.checkpoint_window, 0u);
  EXPECT_EQ(info.replayed_windows, 4u);
  ASSERT_EQ(recovered->SerializeState(), live.SerializeState());

  ASSERT_TRUE(live.ApplyEvents(window(4)).ok());
  EXPECT_EQ(failures->Value(), 1u);
  ASSERT_TRUE(ShardedEngine<IncrementalPageRank>::Recover(dir, 1,
                                                          &recovered, &info)
                  .ok());
  EXPECT_EQ(info.checkpoint_window, 5u);
  EXPECT_EQ(info.replayed_windows, 0u);
  EXPECT_EQ(recovered->SerializeState(), live.SerializeState());
}

TEST(DurableEngineTest, FailedWalRotationIsRetriedByTheNextWindow) {
  // A periodic checkpoint whose WAL rotation fails has already renamed
  // the new checkpoint, which covers its window, but it leaves no open
  // log. The next window retries the checkpoint before it logs
  // anything: a retry that fails refuses the window with its I/O error
  // and changes nothing; one that succeeds rotates to a fresh log and
  // lets the window through.
  const std::size_t n = 80;
  const auto events = MixedStream(n, 9753, 0.15);
  constexpr std::size_t kWidth = 29;
  const std::string dir = FreshDir("fail_rotation");
  const std::string wal = dir + "/" + kWalFileName;
  ShardedOptions sharding;
  sharding.num_shards = 2;
  ShardedEngine<IncrementalPageRank> live(n, Opts(6), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  dopts.checkpoint_interval_windows = 4;
  ASSERT_TRUE(live.EnableDurability(dopts).ok());
  const auto window = [&](std::size_t w) {
    return std::span<const EdgeEvent>(events.data() + w * kWidth, kWidth);
  };
  std::vector<uint64_t> wal_bytes;
  for (std::size_t w = 0; w < 3; ++w) {
    ASSERT_TRUE(live.ApplyEvents(window(w)).ok());
    wal_bytes.push_back(std::filesystem::file_size(wal));
  }
  const obs::Counter* failures = live.metric_handles().checkpoint_failures;

  // Window 3 appends a record as long as window 2's; its checkpoint then
  // writes the 24-byte header gap, the body (the state after window 3,
  // read off a twin engine) and the header; the rotation's new WAL
  // header fails 10 bytes in.
  ShardedEngine<IncrementalPageRank> twin(n, Opts(6), sharding);
  for (std::size_t w = 0; w < 4; ++w) {
    ASSERT_TRUE(twin.ApplyEvents(window(w)).ok());
  }
  const int64_t record = static_cast<int64_t>(wal_bytes[2] - wal_bytes[1]);
  const auto checkpoint =
      static_cast<int64_t>(24 + twin.SerializeState().size() + 24);
  SetFailAfterBytesForTesting(record + checkpoint + 10);
  const Status s = live.ApplyEvents(window(3));
  SetFailAfterBytesForTesting(-1);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(failures->Value(), 1u);
  EXPECT_EQ(std::filesystem::file_size(wal), 10u) << "the fault missed";
  EXPECT_EQ(live.windows_applied(), 4u);
  const std::vector<uint8_t> acked = live.SerializeState();
  ASSERT_EQ(acked, twin.SerializeState());

  // The renamed checkpoint covers window 3; the torn log holds nothing.
  std::unique_ptr<ShardedEngine<IncrementalPageRank>> recovered;
  RecoveryInfo info;
  ASSERT_TRUE(ShardedEngine<IncrementalPageRank>::Recover(dir, 1,
                                                          &recovered, &info)
                  .ok());
  EXPECT_EQ(info.checkpoint_window, 4u);
  EXPECT_EQ(info.replayed_windows, 0u);
  ASSERT_EQ(recovered->SerializeState(), acked);

  // The next window retries the checkpoint first. With its fsync
  // failing, the window is refused with that I/O error (not "WAL is not
  // open") before any state changed, and the failure is counted.
  SetFailNextSyncForTesting();
  const Status refused = live.ApplyEvents(window(4));
  EXPECT_EQ(refused.code(), Status::Code::kIOError) << refused.ToString();
  EXPECT_EQ(failures->Value(), 2u);
  EXPECT_EQ(live.windows_applied(), 4u);
  ASSERT_EQ(live.SerializeState(), acked)
      << "a refused window changed the engine";

  // Re-submitted with nothing armed, the retry rotates the log and the
  // window goes through; recovery replays it on top of the retried
  // checkpoint.
  ASSERT_TRUE(live.ApplyEvents(window(4)).ok());
  EXPECT_EQ(failures->Value(), 2u);
  ASSERT_TRUE(ShardedEngine<IncrementalPageRank>::Recover(dir, 1,
                                                          &recovered, &info)
                  .ok());
  EXPECT_EQ(info.checkpoint_window, 4u);
  EXPECT_EQ(info.replayed_windows, 1u);
  EXPECT_EQ(recovered->SerializeState(), live.SerializeState());
}

TEST(DurableEngineTest, FailedCheckpointKeepsThePreviousFileAndTheWal) {
  // A write that fails inside the body (past the header's 24-byte gap),
  // or a failed fsync of the tmp file, fails Checkpoint() and changes
  // nothing durable: checkpoint.fppr stays byte for byte the previous
  // one, the WAL is not rotated, and Recover() still equals the live
  // engine. The next Checkpoint() succeeds.
  const std::size_t n = 80;
  const auto events = MixedStream(n, 1357, 0.15);
  constexpr std::size_t kWidth = 29;
  // A byte budget fails a write; -1 fails the tmp file's fsync instead.
  for (const int64_t fail_at : {int64_t{25}, int64_t{1024}, int64_t{-1}}) {
    SCOPED_TRACE("fail at " + std::to_string(fail_at));
    const std::string dir =
        FreshDir("fail_ckpt_" + std::to_string(fail_at + 1));
    ShardedOptions sharding;
    sharding.num_shards = 2;
    ShardedEngine<IncrementalPageRank> live(n, Opts(7), sharding);
    DurabilityOptions dopts;
    dopts.directory = dir;
    dopts.checkpoint_interval_windows = 0;  // explicit Checkpoint() only
    ASSERT_TRUE(live.EnableDurability(dopts).ok());
    const auto window = [&](std::size_t w) {
      return std::span<const EdgeEvent>(events.data() + w * kWidth, kWidth);
    };
    for (std::size_t w = 0; w < 3; ++w) {
      ASSERT_TRUE(live.ApplyEvents(window(w)).ok());
    }
    ASSERT_TRUE(live.Checkpoint().ok());
    const std::string ckpt = dir + "/" + kCheckpointFileName;
    std::vector<uint8_t> previous;
    ASSERT_TRUE(ReadFileBytes(ckpt, &previous).ok());
    ASSERT_TRUE(live.ApplyEvents(window(3)).ok());
    ASSERT_TRUE(live.ApplyEvents(window(4)).ok());

    if (fail_at >= 0) {
      SetFailAfterBytesForTesting(fail_at);
    } else {
      SetFailNextSyncForTesting();
    }
    const Status s = live.Checkpoint();
    SetFailAfterBytesForTesting(-1);
    EXPECT_EQ(s.code(), Status::Code::kIOError) << s.ToString();
    std::vector<uint8_t> after;
    ASSERT_TRUE(ReadFileBytes(ckpt, &after).ok());
    EXPECT_EQ(after, previous) << "a failed checkpoint replaced the file";

    std::unique_ptr<ShardedEngine<IncrementalPageRank>> recovered;
    RecoveryInfo info;
    ASSERT_TRUE(ShardedEngine<IncrementalPageRank>::Recover(
                    dir, 1, &recovered, &info)
                    .ok());
    EXPECT_EQ(info.checkpoint_window, 3u);
    EXPECT_EQ(info.replayed_windows, 2u) << "the WAL was rotated";
    ASSERT_EQ(recovered->SerializeState(), live.SerializeState());

    ASSERT_TRUE(live.Checkpoint().ok());
    ASSERT_TRUE(ShardedEngine<IncrementalPageRank>::Recover(
                    dir, 1, &recovered, &info)
                    .ok());
    EXPECT_EQ(info.checkpoint_window, 5u);
    EXPECT_EQ(info.replayed_windows, 0u);
    EXPECT_EQ(recovered->SerializeState(), live.SerializeState());
  }
}

TEST(DurableEngineTest, CheckpointBoundsReplay) {
  // With interval 1 every window checkpoints: recovery must replay
  // nothing (the WAL is freshly rotated) yet still be bit-identical.
  const std::size_t n = 50;
  const std::string dir = FreshDir("interval1");
  ShardedOptions sharding;
  sharding.num_shards = 2;
  ShardedEngine<IncrementalPageRank> live(n, Opts(4), sharding);
  DurabilityOptions dopts;
  dopts.directory = dir;
  dopts.checkpoint_interval_windows = 1;
  ASSERT_TRUE(live.EnableDurability(dopts).ok());
  const auto events = MixedStream(n, 31, 0.1);
  ApplyInWindows(&live, std::span<const EdgeEvent>(events.data(), 120), 30);

  std::unique_ptr<ShardedEngine<IncrementalPageRank>> recovered;
  RecoveryInfo info;
  ASSERT_TRUE(ShardedEngine<IncrementalPageRank>::Recover(dir, 1,
                                                          &recovered, &info)
                  .ok());
  EXPECT_EQ(info.replayed_windows, 0u);
  EXPECT_EQ(recovered->SerializeState(), live.SerializeState());
}

}  // namespace
}  // namespace fastppr
