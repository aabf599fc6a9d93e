// Chaos benchmark (ISSUE: chaos orchestration + self-healing vprofd).
// Emits BENCH_chaos.json.
//
// Three experiments:
//
//   1. Storm cost — both engines run the same TPC-C mix clean and then under
//      a composed fault storm (write-error/stall bursts from a seeded
//      ChaosOrchestrator plus kill-and-recover cycles through the
//      mid-group-commit-batch crash points). Reported: throughput and p99
//      under the storm vs clean.
//
//   2. MTTR — every kill/recover cycle is timed from the moment the crash is
//      observed to the moment recovery returns; the distribution (min /
//      mean / max over all cycles of both engines' storms) is reported.
//
//   3. Supervisor overhead — minidb serving throughput with no daemon
//      (tracing off) vs a vprofd parked in Quarantined by induced history
//      pressure: the graceful-degradation floor. Acceptance elsewhere
//      (supervisor_test) pins this within 5%; the bench reports the measured
//      percentage.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/fault/chaos.h"
#include "src/fault/failpoint.h"
#include "src/statkit/rng.h"
#include "src/vprof/service/vprofd.h"
#include "src/workload/invariants.h"

namespace {

constexpr uint64_t kStormSeed = 2024;
constexpr int kLoadThreads = 4;
constexpr int kCleanTxnsPerThread = 400;
constexpr int kCrashCycles = 3;

simio::DiskConfig StormDisk(const std::string& scope) {
  simio::DiskConfig config;
  config.read_mu = 0.5;
  config.write_mu = 0.5;
  config.fsync_mu = 1.0;
  config.fsync_spike_prob = 0.0;
  config.error_latency_us = 20.0;
  config.stall_us = 500.0;
  config.serialize_access = false;
  config.fault_scope = scope;
  config.seed = 31;
  return config;
}

fault::ChaosOptions StormOptions() {
  fault::ChaosOptions options;
  options.horizon_steps = 240;  // ~1 step/ms of orchestration below
  options.bursts = 5;
  options.max_overlap = 2;
  options.min_burst_steps = 10;
  options.max_burst_steps = 50;
  options.crash_cycles = 0;  // cycles are driven (and timed) by hand
  options.value_bound = 0;
  return options;
}

struct StormOutcome {
  bench::LatencyStats clean;
  bench::LatencyStats storm;
  uint64_t storm_committed = 0;
  uint64_t storm_aborted = 0;
  std::vector<double> mttr_ms;
};

// Drives the orchestrator clock at ~1 step/ms and injects kCrashCycles
// kill/recover cycles at fixed step marks, timing each recovery.
template <typename CrashedFn, typename RecoverFn>
void DriveStorm(fault::ChaosOrchestrator* chaos, const char* crash_point,
                CrashedFn crashed, RecoverFn recover,
                std::vector<double>* mttr_ms, std::atomic<bool>* stop) {
  const uint64_t horizon = StormOptions().horizon_steps;
  const uint64_t cycle_every = horizon / (kCrashCycles + 1);
  int cycles_done = 0;
  while (chaos->current_step() < horizon) {
    chaos->Step();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (cycles_done < kCrashCycles &&
        chaos->current_step() >=
            cycle_every * static_cast<uint64_t>(cycles_done + 1)) {
      fault::Activate(crash_point, fault::Trigger::OneShotWithValue(
                                       97u * (cycles_done + 1u)));
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!crashed() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      fault::Deactivate(crash_point);
      if (crashed()) {
        const auto down = std::chrono::steady_clock::now();
        recover();
        const auto up = std::chrono::steady_clock::now();
        mttr_ms->push_back(
            std::chrono::duration<double, std::milli>(up - down).count());
      }
      ++cycles_done;
    }
  }
  chaos->Finish();
  stop->store(true);
}

StormOutcome RunMinidbStorm() {
  StormOutcome out;
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 4;
  config.log_disk = StormDisk("bench_chaos_md_log");
  config.data_disk = StormDisk("bench_chaos_md_data");

  {
    minidb::Engine engine(config);
    workload::TpccDriver driver(
        &engine, bench::TpccQuick(kLoadThreads, kCleanTxnsPerThread));
    const workload::TpccResult result = driver.Run();
    out.clean = bench::ToStats(result.latencies_ns, result.throughput_tps);
  }

  minidb::Engine engine(config);
  engine.redo_log().set_crash_seed(kStormSeed);
  fault::ChaosTargets targets;
  targets.faults = {"bench_chaos_md_log/write_error",
                    "bench_chaos_md_log/stall",
                    "bench_chaos_md_data/read_error"};
  fault::ChaosOrchestrator chaos(kStormSeed, targets, StormOptions());

  std::atomic<bool> stop{false};
  std::thread orchestrator([&] {
    DriveStorm(
        &chaos, "redo/crash_mid_batch",
        [&] { return engine.redo_log().crashed(); },
        [&] { engine.redo_log().Recover(); }, &out.mttr_ms, &stop);
  });
  workload::TpccDriver driver(&engine,
                              bench::TpccQuick(kLoadThreads, 1 << 20));
  const workload::TpccResult result = driver.RunUntil(stop);
  orchestrator.join();
  out.storm = bench::ToStats(result.latencies_ns, result.throughput_tps);
  out.storm_committed = result.committed;
  out.storm_aborted = result.aborted;

  engine.Stop();
  const workload::InvariantResult balance =
      workload::CheckBalanceConservation(engine);
  if (!balance.ok) {
    std::fprintf(stderr, "chaos: minidb invariant violated: %s\n",
                 balance.detail.c_str());
    std::exit(1);
  }
  return out;
}

StormOutcome RunMinipgStorm() {
  StormOutcome out;
  minipg::PgConfig config;
  config.wal_units = 2;
  config.wal_disk = StormDisk("bench_chaos_pg_wal");

  {
    minipg::PgEngine engine(config);
    workload::TpccDriver driver(
        nullptr, bench::TpccQuick(kLoadThreads, kCleanTxnsPerThread));
    const workload::TpccResult result = driver.RunWith(
        [&engine](const minidb::TxnRequest& r) { return engine.Execute(r); },
        8);
    out.clean = bench::ToStats(result.latencies_ns, result.throughput_tps);
  }

  minipg::PgEngine engine(config);
  for (int i = 0; i < config.wal_units; ++i) {
    engine.wal().unit(i).set_crash_seed(kStormSeed + static_cast<uint64_t>(i));
  }
  fault::ChaosTargets targets;
  targets.faults = {"bench_chaos_pg_wal.0/write_error",
                    "bench_chaos_pg_wal.1/write_error",
                    "bench_chaos_pg_wal.0/stall"};
  fault::ChaosOrchestrator chaos(kStormSeed + 1, targets, StormOptions());

  const auto any_crashed = [&] {
    for (int i = 0; i < config.wal_units; ++i) {
      if (engine.wal().unit(i).crashed()) {
        return true;
      }
    }
    return false;
  };
  std::atomic<bool> stop{false};
  std::thread orchestrator([&] {
    DriveStorm(
        &chaos, "wal/crash_mid_batch", any_crashed,
        [&] {
          for (int i = 0; i < config.wal_units; ++i) {
            if (engine.wal().unit(i).crashed()) {
              engine.wal().unit(i).Recover();
            }
          }
        },
        &out.mttr_ms, &stop);
  });
  workload::TpccDriver driver(nullptr,
                              bench::TpccQuick(kLoadThreads, 1 << 20));
  const workload::TpccResult result = driver.RunTypedUntil(
      [&engine](const minidb::TxnRequest& r) {
        minidb::TxnOutcome outcome;
        outcome.committed = engine.Execute(r);
        return outcome;
      },
      8, stop);
  orchestrator.join();
  out.storm = bench::ToStats(result.latencies_ns, result.throughput_tps);
  out.storm_committed = result.committed;
  out.storm_aborted = result.aborted;
  engine.Stop();
  return out;
}

struct SupervisorOverhead {
  double baseline_tps = 0.0;
  double quarantined_tps = 0.0;
  double overhead_pct = 0.0;
};

SupervisorOverhead RunSupervisorOverhead() {
  SupervisorOverhead out;
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 2;
  config.log_disk.fsync_spike_prob = 0.0;
  minidb::Engine engine(config);

  constexpr int kTxns = 2000;
  const auto measure_tps = [&engine](uint64_t seed) {
    workload::TpccGenerator generator(workload::TpccOptions{}, 2);
    statkit::Rng rng(seed);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTxns; ++i) {
      engine.Execute(generator.Next(rng));
    }
    const auto t1 = std::chrono::steady_clock::now();
    return kTxns / std::chrono::duration<double>(t1 - t0).count();
  };
  const auto best_of = [&measure_tps](int trials, uint64_t seed_base) {
    double best = 0.0;
    for (int i = 0; i < trials; ++i) {
      best = std::max(best, measure_tps(seed_base + i));
    }
    return best;
  };

  measure_tps(1);  // warm-up
  out.baseline_tps = best_of(3, 10);

  const std::string dir = std::filesystem::temp_directory_path() /
                          "bench_chaos_quarantine_history";
  std::filesystem::remove_all(dir);
  vprof::VprofdOptions options;
  options.enable_controller = false;
  options.epoch_ns = 2'000'000;
  options.history.dir = dir;
  options.history.fault_scope = "bench_chaos_hist";
  options.enable_supervisor = true;
  options.supervisor.escalate_after = 1;
  options.supervisor.restore_after = 1'000'000;  // park in Quarantined
  options.supervisor.degraded_epoch_multiplier = 1.0;

  fault::Activate("bench_chaos_hist/write_error", fault::Trigger::Always());
  auto daemon = minidb::Engine::StartOnlineProfiler(std::move(options));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon->supervisor_state() != vprof::SupervisorState::kQuarantined &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  fault::Deactivate("bench_chaos_hist/write_error");
  if (daemon->supervisor_state() != vprof::SupervisorState::kQuarantined) {
    std::fprintf(stderr, "chaos: supervisor never reached quarantine\n");
    std::exit(1);
  }

  out.quarantined_tps = best_of(3, 20);
  daemon->Stop();
  std::filesystem::remove_all(dir);

  out.overhead_pct = out.baseline_tps > 0.0
                         ? 100.0 * (1.0 - out.quarantined_tps /
                                              out.baseline_tps)
                         : 0.0;
  return out;
}

bench::Json EngineJson(const StormOutcome& out) {
  bench::Json mttr_ms = bench::Json::Array();
  for (double ms : out.mttr_ms) {
    mttr_ms.Push(bench::Json(ms, 3));
  }
  const statkit::Summary mttr = statkit::Summarize(out.mttr_ms);
  const auto latency = [](const bench::LatencyStats& stats) {
    return bench::Json::Object()
        .Set("throughput_tps", bench::Json(stats.throughput, 1))
        .Set("p99_ms", stats.p99_ms);
  };
  return bench::Json::Object()
      .Set("clean", latency(out.clean))
      .Set("storm", latency(out.storm)
                        .Set("committed", out.storm_committed)
                        .Set("aborted", out.storm_aborted))
      .Set("mttr_ms", mttr_ms)
      .Set("mttr", bench::Json::Object()
                       .Set("cycles", mttr.count)
                       .Set("min_ms", bench::Json(mttr.min, 3))
                       .Set("mean_ms", bench::Json(mttr.mean, 3))
                       .Set("max_ms", bench::Json(mttr.max, 3)));
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Chaos: fault storms, MTTR, and supervised degradation overhead");

  std::printf("\nminidb under storm (seed %llu):\n",
              static_cast<unsigned long long>(kStormSeed));
  const StormOutcome md = RunMinidbStorm();
  bench::PrintStatsRow("clean", md.clean);
  bench::PrintStatsRow("storm", md.storm);
  const statkit::Summary md_mttr = statkit::Summarize(md.mttr_ms);
  std::printf("  MTTR over %llu cycles: min=%.2f ms  mean=%.2f ms  max=%.2f ms\n",
              static_cast<unsigned long long>(md_mttr.count), md_mttr.min,
              md_mttr.mean, md_mttr.max);

  std::printf("\nminipg under storm:\n");
  const StormOutcome pg = RunMinipgStorm();
  bench::PrintStatsRow("clean", pg.clean);
  bench::PrintStatsRow("storm", pg.storm);
  const statkit::Summary pg_mttr = statkit::Summarize(pg.mttr_ms);
  std::printf("  MTTR over %llu cycles: min=%.2f ms  mean=%.2f ms  max=%.2f ms\n",
              static_cast<unsigned long long>(pg_mttr.count), pg_mttr.min,
              pg_mttr.mean, pg_mttr.max);

  std::printf("\nsupervised degradation floor (vprofd quarantined):\n");
  const SupervisorOverhead sup = RunSupervisorOverhead();
  std::printf("  baseline    %8.1f tps (no daemon, tracing off)\n",
              sup.baseline_tps);
  std::printf("  quarantined %8.1f tps (daemon parked in Quarantine)\n",
              sup.quarantined_tps);
  std::printf("  overhead    %8.2f %%\n", sup.overhead_pct);

  const bench::Json report =
      bench::Json::Object()
          .Set("benchmark", "chaos")
          .Set("storm_seed", kStormSeed)
          .Set("engines", bench::Json::Object()
                              .Set("minidb", EngineJson(md))
                              .Set("minipg", EngineJson(pg)))
          .Set("supervisor",
               bench::Json::Object()
                   .Set("baseline_tps", bench::Json(sup.baseline_tps, 1))
                   .Set("quarantined_tps", bench::Json(sup.quarantined_tps, 1))
                   .Set("quarantine_overhead_pct",
                        bench::Json(sup.overhead_pct, 2)));
  return bench::WriteBenchJson("BENCH_chaos.json", report) ? 0 : 1;
}
