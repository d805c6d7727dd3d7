#include "fastppr/obs/metrics.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/obs/engine_metrics.h"

namespace fastppr {
namespace {

using obs::Counter;
using obs::EngineMetrics;
using obs::MetricsRegistry;

TEST(CounterTest, SingleStripeAddAndSet) {
  Counter c(1);
  c.Add(5);
  c.Add(7);
  EXPECT_EQ(c.Value(), 12u);
  EXPECT_EQ(c.Total(), 12u);
  c.Set(3);
  EXPECT_EQ(c.Total(), 3u);
}

TEST(CounterTest, StripedTotalSumsAllStripes) {
  Counter c(4);
  for (std::size_t s = 0; s < 4; ++s) c.Add(s + 1, s);
  EXPECT_EQ(c.Value(0), 1u);
  EXPECT_EQ(c.Value(3), 4u);
  EXPECT_EQ(c.Total(), 10u);
}

TEST(MetricsRegistryTest, ExportJsonContainsEverything) {
  MetricsRegistry reg;
  Counter* events = reg.RegisterCounter("events");
  Counter* per_shard = reg.RegisterCounter("per_shard_thing", 2);
  Counter* gauge = reg.RegisterGauge("epoch");
  obs::LatencyHistogram* lat = reg.RegisterHistogram("latency");
  events->Add(3);
  per_shard->Add(1, 0);
  per_shard->Add(2, 1);
  gauge->Set(9);
  lat->Record(1000);
  lat->Record(2000);
  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"events\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"per_shard_thing\": {\"total\": 3, "
                      "\"per_stripe\": [1, 2]}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"epoch\": 9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency\": {\"count\": 2"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos) << json;
}

TEST(MetricsRegistryTest, EngineMetricsSchemaRegisters) {
  MetricsRegistry reg;
  EngineMetrics m = EngineMetrics::Register(&reg, 4);
  ASSERT_NE(m.walks_repaired, nullptr);
  EXPECT_EQ(m.walks_repaired->stripes(), 4u);
  EXPECT_EQ(m.wal_records->stripes(), 1u);
  // The memory ledger: one stripe per block pool, every shard's walk
  // store and then every frozen row table.
  EXPECT_EQ(m.pool_live_bytes->stripes(), 4u + EngineMetrics::kRowTables);
  EXPECT_EQ(m.pool_held_bytes->stripes(), 4u + EngineMetrics::kRowTables);
  m.walks_repaired->Add(10, 3);
  m.ingest_phase->Record(5000);
  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"walks_repaired\""), std::string::npos);
  EXPECT_NE(json.find("\"ingest_phase\""), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotUnderConcurrentWriters) {
  // The tentpole contract: ExportJson (and raw Value/Total reads) must
  // be safe — and never block — while hot-path writers hammer the same
  // counters from many threads. Runs under TSan in CI.
  MetricsRegistry reg;
  const std::size_t kStripes = 4;
  Counter* striped = reg.RegisterCounter("striped", kStripes);
  Counter* global = reg.RegisterCounter("global");
  obs::LatencyHistogram* lat = reg.RegisterHistogram("lat");
  std::atomic<bool> stop{false};
  const int kPerWriter = 100000;
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kStripes; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        striped->Add(1, w);
        global->Add(2);
        lat->Record(static_cast<uint64_t>(i));
      }
    });
  }
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string json = reg.ExportJson();
      ASSERT_FALSE(json.empty());
      // Monotone reads: a snapshot total can never exceed the final sum.
      ASSERT_LE(striped->Total(),
                static_cast<uint64_t>(kStripes) * kPerWriter);
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  EXPECT_EQ(striped->Total(), static_cast<uint64_t>(kStripes) * kPerWriter);
  EXPECT_EQ(global->Total(),
            2u * static_cast<uint64_t>(kStripes) * kPerWriter);
  EXPECT_EQ(lat->count(), static_cast<uint64_t>(kStripes) * kPerWriter);
}

TEST(MetricsRegistryTest, RegistrationDuringExportIsSafe) {
  // Handles are grabbed at attach time, but a second subsystem may
  // register new metrics while an exporter iterates: both take the
  // registry mutex, and deque-backed storage keeps prior handles stable.
  MetricsRegistry reg;
  Counter* first = reg.RegisterCounter("first");
  std::atomic<bool> stop{false};
  std::thread exporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)reg.ExportJson();
    }
  });
  std::vector<Counter*> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(
        reg.RegisterCounter("c" + std::to_string(i), 1 + (i % 3)));
    handles.back()->Add(1);
    first->Add(1);
  }
  stop.store(true, std::memory_order_release);
  exporter.join();
  EXPECT_EQ(first->Total(), 200u);
  for (Counter* h : handles) EXPECT_EQ(h->Total(), 1u);
}

}  // namespace
}  // namespace fastppr
