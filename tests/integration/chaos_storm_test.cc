// Chaos storms against the two engines and the history store (ctest label
// `chaos`):
//
//   * Seed-determinism sweeps: 32 seeds x both engines, each seed run twice
//     single-threaded. The orchestrator trail AND the post-storm engine
//     state (digest, balances, counters, recovered LSNs) must be
//     bit-identical between runs — any failure a storm uncovers is
//     replayable by its seed.
//   * Kill-and-recover cycles under multi-threaded TPC-C load via the
//     mid-group-commit-batch crash points, checked with the reusable
//     invariant library (balance conservation, acked-prefix durability,
//     bounded thread join).
//   * StatStore killed at a segment roll recovers bit-exactly.
//   * An aborted buffer-pool resize leaves the pool serviceable.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/chaos.h"
#include "src/fault/failpoint.h"
#include "src/minidb/engine.h"
#include "src/minipg/engine.h"
#include "src/statkit/rng.h"
#include "src/statstore/store.h"
#include "src/workload/invariants.h"
#include "src/workload/tpcc.h"

namespace {

class ChaosStormTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DeactivateAll();
    fault::ResetCounters();
  }
  void TearDown() override {
    fault::DeactivateAll();
    fault::ResetCounters();
  }
};

simio::DiskConfig FastDisk(const std::string& scope) {
  simio::DiskConfig config;
  config.read_mu = 0.1;
  config.write_mu = 0.1;
  config.fsync_mu = 0.1;
  config.fsync_spike_prob = 0.0;
  config.error_latency_us = 1.0;
  config.stall_us = 100.0;  // keep armed stall bursts cheap across 32 seeds
  config.serialize_access = false;
  config.fault_scope = scope;
  config.seed = 17;
  return config;
}

// Storm shape shared by both determinism sweeps: small logical horizon,
// overlapping error bursts, two kill/recover cycles.
fault::ChaosOptions SweepOptions() {
  fault::ChaosOptions options;
  options.horizon_steps = 80;
  options.bursts = 4;
  options.max_overlap = 2;
  options.min_burst_steps = 5;
  options.max_burst_steps = 25;
  options.crash_cycles = 2;
  options.min_downtime_steps = 4;
  options.max_downtime_steps = 10;
  options.value_bound = 0;  // no payload-consuming failpoints in the sweep
  return options;
}

constexpr int kSweepSeeds = 32;
constexpr int kSweepTxns = 400;

// ---------------------------------------------------------------------------
// minidb determinism sweep.

struct MinidbStormResult {
  std::string trail;
  uint64_t digest = 0;
  int64_t balance = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t crashes = 0;
  uint64_t flushed_lsn = 0;

  bool operator==(const MinidbStormResult& o) const {
    return trail == o.trail && digest == o.digest && balance == o.balance &&
           committed == o.committed && aborted == o.aborted &&
           crashes == o.crashes && flushed_lsn == o.flushed_lsn;
  }
};

MinidbStormResult RunMinidbStorm(uint64_t seed) {
  fault::DeactivateAll();
  fault::ResetCounters();
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 1;
  config.log_disk = FastDisk("chaos_md_log");
  config.data_disk = FastDisk("chaos_md_data");
  minidb::Engine engine(config);
  engine.redo_log().set_crash_seed(seed ^ 0x9E3779B97F4A7C15ull);

  fault::ChaosTargets targets;
  targets.faults = {"chaos_md_log/write_error", "chaos_md_log/stall",
                    "chaos_md_data/read_error"};
  targets.crash_sites.push_back(
      {"minidb-redo", [&] { engine.redo_log().Crash(seed + 17); },
       [&] { engine.redo_log().Recover(); }});

  fault::ChaosOrchestrator chaos(seed, targets, SweepOptions());
  workload::TpccGenerator generator(workload::TpccOptions{},
                                    config.warehouses);
  statkit::Rng rng(seed * 2654435761ull + 1);
  for (int txn = 0; txn < kSweepTxns; ++txn) {
    engine.Execute(generator.Next(rng));
    if (txn % 5 == 4) {
      chaos.Step();
    }
  }
  chaos.Finish();

  MinidbStormResult result;
  result.trail = chaos.TrailString();
  result.digest = engine.StateDigest();
  result.balance = engine.BalanceTotal();
  result.committed = engine.committed_count();
  result.aborted = engine.aborted_count();
  result.crashes = chaos.crashes_injected();
  result.flushed_lsn = engine.redo_log().flushed_lsn();
  EXPECT_TRUE(workload::CheckBalanceConservation(engine).ok)
      << workload::CheckBalanceConservation(engine).detail;
  fault::DeactivateAll();
  fault::ResetCounters();
  return result;
}

TEST_F(ChaosStormTest, MinidbStormIsSeedDeterministic) {
  for (uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const MinidbStormResult first = RunMinidbStorm(seed);
    const MinidbStormResult second = RunMinidbStorm(seed);
    EXPECT_TRUE(first == second) << "storm not replayable for seed " << seed
                                 << "\n-- first trail --\n"
                                 << first.trail << "\n-- second trail --\n"
                                 << second.trail;
    EXPECT_EQ(first.balance, 0);
    EXPECT_GT(first.committed, 0u);
    EXPECT_EQ(first.crashes, 2u);  // both scheduled cycles ran
    EXPECT_FALSE(first.trail.empty());
  }
}

// ---------------------------------------------------------------------------
// minipg determinism sweep.

struct MinipgStormResult {
  std::string trail;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t crashes = 0;
  uint64_t flushed_lsn = 0;

  bool operator==(const MinipgStormResult& o) const {
    return trail == o.trail && committed == o.committed &&
           aborted == o.aborted && crashes == o.crashes &&
           flushed_lsn == o.flushed_lsn;
  }
};

MinipgStormResult RunMinipgStorm(uint64_t seed) {
  fault::DeactivateAll();
  fault::ResetCounters();
  minipg::PgConfig config;
  config.wal_units = 1;
  config.wal_disk = FastDisk("chaos_pg_wal");
  minipg::PgEngine engine(config);
  engine.wal().unit(0).set_crash_seed(seed + 3);

  fault::ChaosTargets targets;
  // Wal unit disks live in the "<scope>.<unit>" namespace.
  targets.faults = {"chaos_pg_wal.0/write_error", "chaos_pg_wal.0/stall"};
  targets.crash_sites.push_back(
      {"minipg-wal", [&] { engine.wal().unit(0).Crash(seed + 29); },
       [&] { engine.wal().unit(0).Recover(); }});

  fault::ChaosOrchestrator chaos(seed, targets, SweepOptions());
  workload::TpccGenerator generator(workload::TpccOptions{}, 4);
  statkit::Rng rng(seed * 6364136223846793005ull + 9);
  for (int txn = 0; txn < kSweepTxns; ++txn) {
    engine.Execute(generator.Next(rng));
    if (txn % 5 == 4) {
      chaos.Step();
    }
  }
  chaos.Finish();

  MinipgStormResult result;
  result.trail = chaos.TrailString();
  result.committed = engine.committed_count();
  result.aborted = engine.aborted_count();
  result.crashes = chaos.crashes_injected();
  result.flushed_lsn = engine.wal().unit(0).flushed_lsn();
  fault::DeactivateAll();
  fault::ResetCounters();
  return result;
}

TEST_F(ChaosStormTest, MinipgStormIsSeedDeterministic) {
  for (uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const MinipgStormResult first = RunMinipgStorm(seed);
    const MinipgStormResult second = RunMinipgStorm(seed);
    EXPECT_TRUE(first == second) << "storm not replayable for seed " << seed
                                 << "\n-- first trail --\n"
                                 << first.trail << "\n-- second trail --\n"
                                 << second.trail;
    EXPECT_GT(first.committed, 0u);
    EXPECT_EQ(first.crashes, 2u);
  }
}

// ---------------------------------------------------------------------------
// Kill-and-recover under concurrent load via the mid-batch crash points.

TEST_F(ChaosStormTest, MinidbMidBatchCrashCyclesUnderConcurrentLoad) {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 4;
  config.log_disk = FastDisk("chaos_md_live_log");
  config.data_disk = FastDisk("chaos_md_live_data");
  minidb::Engine engine(config);
  engine.redo_log().set_crash_seed(99);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&engine, &stop, &acked, t] {
      workload::TpccGenerator generator(workload::TpccOptions{}, 4);
      statkit::Rng rng(1000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        if (engine.Execute(generator.Next(rng)).committed) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int cycle = 0; cycle < 3; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const uint64_t acked_lsn = engine.redo_log().flushed_lsn();
    // Kill the log mid group-commit batch: a seeded prefix of the batch
    // (137*(cycle+1) bytes here) reaches the device cache before the crash.
    fault::Activate("redo/crash_mid_batch", fault::Trigger::OneShotWithValue(
                                                137u * (cycle + 1u)));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!engine.redo_log().crashed() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(engine.redo_log().crashed()) << "crash point never hit";
    fault::Deactivate("redo/crash_mid_batch");
    const minidb::RecoveryResult recovered = engine.redo_log().Recover();
    const workload::InvariantResult durable =
        workload::CheckAckedPrefixDurable(acked_lsn, recovered.recovered_lsn);
    EXPECT_TRUE(durable.ok) << durable.detail;
  }

  stop.store(true);
  const workload::InvariantResult joined =
      workload::CheckThreadsJoin(&workers, 10000);
  ASSERT_TRUE(joined.ok) << joined.detail;
  engine.Stop();
  EXPECT_EQ(acked.load(), engine.committed_count());
  const workload::InvariantResult balance =
      workload::CheckBalanceConservation(engine);
  EXPECT_TRUE(balance.ok) << balance.detail;
  // The stopped engine refuses further work cleanly.
  const minidb::TxnOutcome post = engine.Execute(minidb::TxnRequest{});
  EXPECT_FALSE(post.committed);
  EXPECT_EQ(post.error, minidb::TxnError::kShutdown);
}

// The same kill-and-recover cycles through the pipelined commit, the wire
// path's: each worker's commits complete on whichever worker leads the
// flush, and the acks are counted in the completions. After every cycle,
// with the workers joined and so every completion run, the acked prefix is
// durable and the balance total is 0.
TEST_F(ChaosStormTest, MinidbPipelinedMidBatchCrashCyclesUnderConcurrentLoad) {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 4;
  config.log_disk = FastDisk("chaos_md_pipe_log");
  config.data_disk = FastDisk("chaos_md_pipe_data");
  minidb::Engine engine(config);
  engine.redo_log().set_crash_seed(99);

  std::atomic<uint64_t> acked{0};
  for (int cycle = 0; cycle < 3; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> max_acked_lsn{0};
    const auto done = [&](const minidb::TxnOutcome& outcome) {
      if (!outcome.committed) {
        return;
      }
      acked.fetch_add(1, std::memory_order_relaxed);
      uint64_t seen = max_acked_lsn.load(std::memory_order_relaxed);
      while (outcome.commit_lsn > seen &&
             !max_acked_lsn.compare_exchange_weak(seen, outcome.commit_lsn)) {
      }
    };
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&engine, &stop, &done, cycle, t] {
        workload::TpccGenerator generator(workload::TpccOptions{}, 4);
        statkit::Rng rng(3000 + 10 * static_cast<uint64_t>(cycle) +
                         static_cast<uint64_t>(t));
        while (!stop.load(std::memory_order_relaxed)) {
          engine.ExecutePipelined(generator.Next(rng), done);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fault::Activate("redo/crash_mid_batch", fault::Trigger::OneShotWithValue(
                                                137u * (cycle + 1u)));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!engine.redo_log().crashed() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool crashed = engine.redo_log().crashed();
    fault::Deactivate("redo/crash_mid_batch");
    stop.store(true);
    const workload::InvariantResult joined =
        workload::CheckThreadsJoin(&workers, 10000);
    ASSERT_TRUE(joined.ok) << joined.detail;
    ASSERT_TRUE(crashed) << "crash point never hit";
    const minidb::RecoveryResult recovered = engine.redo_log().Recover();
    const workload::InvariantResult durable = workload::CheckAckedPrefixDurable(
        max_acked_lsn.load(), recovered.recovered_lsn);
    EXPECT_TRUE(durable.ok) << durable.detail;
    const workload::InvariantResult balance =
        workload::CheckBalanceConservation(engine);
    EXPECT_TRUE(balance.ok) << balance.detail;
  }
  engine.Stop();
  EXPECT_GT(acked.load(), 0u);
  EXPECT_EQ(acked.load(), engine.committed_count());
}

TEST_F(ChaosStormTest, MinipgMidBatchCrashCyclesUnderConcurrentLoad) {
  minipg::PgConfig config;
  config.wal_units = 2;
  config.wal_disk = FastDisk("chaos_pg_live");
  minipg::PgEngine engine(config);
  for (int i = 0; i < config.wal_units; ++i) {
    engine.wal().unit(i).set_crash_seed(100 + static_cast<uint64_t>(i));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&engine, &stop, &acked, t] {
      workload::TpccGenerator generator(workload::TpccOptions{}, 4);
      statkit::Rng rng(2000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        if (engine.Execute(generator.Next(rng))) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int cycle = 0; cycle < 3; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::vector<uint64_t> acked_lsn(static_cast<size_t>(config.wal_units));
    for (int i = 0; i < config.wal_units; ++i) {
      acked_lsn[static_cast<size_t>(i)] = engine.wal().unit(i).flushed_lsn();
    }
    fault::Activate("wal/crash_mid_batch",
                    fault::Trigger::OneShotWithValue(211u * (cycle + 1u)));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    auto any_crashed = [&] {
      for (int i = 0; i < config.wal_units; ++i) {
        if (engine.wal().unit(i).crashed()) {
          return true;
        }
      }
      return false;
    };
    while (!any_crashed() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(any_crashed()) << "crash point never hit";
    fault::Deactivate("wal/crash_mid_batch");
    for (int i = 0; i < config.wal_units; ++i) {
      if (!engine.wal().unit(i).crashed()) {
        continue;
      }
      const minipg::WalRecoveryResult recovered =
          engine.wal().unit(i).Recover();
      const workload::InvariantResult durable =
          workload::CheckAckedPrefixDurable(acked_lsn[static_cast<size_t>(i)],
                                            recovered.recovered_lsn);
      EXPECT_TRUE(durable.ok) << "unit " << i << ": " << durable.detail;
    }
  }

  stop.store(true);
  const workload::InvariantResult joined =
      workload::CheckThreadsJoin(&workers, 10000);
  ASSERT_TRUE(joined.ok) << joined.detail;
  engine.Stop();
  EXPECT_EQ(acked.load(), engine.committed_count());
  EXPECT_FALSE(engine.Execute(minidb::TxnRequest{}));
}

// ---------------------------------------------------------------------------
// StatStore killed at a segment roll.

TEST_F(ChaosStormTest, StatStoreCrashOnRollRecoversBitExact) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/chaos_store_roll";
  std::filesystem::remove_all(dir);
  statstore::StoreOptions options;
  options.dir = dir;
  options.max_segment_bytes = 512;  // roll every few appends
  options.fault_scope = "chaos_store";

  uint64_t appended = 0;
  {
    statstore::StatStore store(options);
    ASSERT_TRUE(store.Open());
    fault::Activate("chaos_store/crash_on_roll", fault::Trigger::OneShot());
    statkit::Rng rng(5);
    statstore::AppendStatus status = statstore::AppendStatus::kOk;
    for (uint64_t epoch = 1; epoch <= 10000; ++epoch) {
      statstore::EpochSample sample;
      sample.epoch = epoch;
      sample.values.push_back({"chaos:a", rng.NextDouble()});
      sample.values.push_back({"chaos:b", rng.NextDouble() * 1e6});
      status = store.Append(sample);
      if (status != statstore::AppendStatus::kOk) {
        break;
      }
      ++appended;
    }
    // The append that hit the roll fails and wedges the store.
    ASSERT_EQ(status, statstore::AppendStatus::kIoError)
        << "crash_on_roll never fired";
    // Wedged stays wedged: the dead store takes no more samples.
    statstore::EpochSample again;
    again.epoch = appended + 2;
    again.values.push_back({"chaos:a", 1.0});
    EXPECT_EQ(store.Append(again), statstore::AppendStatus::kWedged);
    fault::Deactivate("chaos_store/crash_on_roll");
  }

  // A fresh store over the same directory recovers everything that was
  // durably framed, and the recovered history replays bit-exactly.
  statstore::StatStore reopened(options);
  ASSERT_TRUE(reopened.Open());
  EXPECT_EQ(reopened.record_count(), appended);
  const workload::InvariantResult replay =
      workload::CheckStatStoreBitExactReplay(&reopened);
  EXPECT_TRUE(replay.ok) << replay.detail;
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Aborted buffer-pool resize under load.

TEST_F(ChaosStormTest, BufferPoolResizeAbortLeavesPoolServiceable) {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 2;
  config.log_disk = FastDisk("chaos_resize_log");
  config.data_disk = FastDisk("chaos_resize_data");
  minidb::Engine engine(config);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&engine, &stop, &acked, t] {
      workload::TpccGenerator generator(workload::TpccOptions{}, 2);
      statkit::Rng rng(3000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        if (engine.Execute(generator.Next(rng)).committed) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The abort leaves a prefix of shards at the new capacity and the rest at
  // the old one; either way every shard stays independently consistent.
  {
    fault::ScopedFailpoint fp("pool/resize_abort", fault::Trigger::OneShot());
    engine.buffer_pool().Resize(config.buffer_pool_pages / 2);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // A clean resize afterwards completes normally.
  engine.buffer_pool().Resize(config.buffer_pool_pages);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  stop.store(true);
  const workload::InvariantResult joined =
      workload::CheckThreadsJoin(&workers, 10000);
  ASSERT_TRUE(joined.ok) << joined.detail;
  engine.Stop();
  EXPECT_GT(acked.load(), 0u);
  const workload::InvariantResult balance =
      workload::CheckBalanceConservation(engine);
  EXPECT_TRUE(balance.ok) << balance.detail;
}

}  // namespace
