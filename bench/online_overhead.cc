// Overhead of the always-on service on the probe hot path. Emits
// BENCH_online.json comparing enabled-probe ns/probe under a plain batch
// tracing run (the micro_probe baseline) against the same loop with the
// vprofd epoch harvester rotating underneath it. The service is supposed to
// be embeddable in production, so the acceptance bar is ratio < 2x.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/vprof/probe.h"
#include "src/vprof/registry.h"
#include "src/vprof/runtime.h"
#include "src/vprof/service/vprofd.h"

namespace {

constexpr int kThreads = 4;
constexpr int kProbesPerInterval = 1000;

void ProbedFunc() {
  VPROF_FUNC("online_bench_fn");
}

// One semantic interval wrapping a batch of probed calls, so harvested
// epochs contain real intervals for the streaming tree to fold.
void IntervalBatch() {
  const vprof::IntervalId sid = vprof::BeginInterval();
  for (int i = 0; i < kProbesPerInterval; ++i) {
    ProbedFunc();
  }
  vprof::EndInterval(sid);
}

// Runs IntervalBatch for a fixed wall duration and reports the realized
// probe count. Duration-based (not count-based) timing matters for the
// online configuration: the loop runs ~100x faster during the tracing-off
// rotation gaps, so a fixed batch budget would be consumed inside a single
// gap instead of time-averaging over many epoch/gap cycles.
int64_t BatchesFor(int64_t duration_ns) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::nanoseconds(duration_ns);
  int64_t batches = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    IntervalBatch();
    ++batches;
  }
  return batches;
}

double MeasureSingle(int64_t duration_ns) {
  BatchesFor(duration_ns / 4);  // warm-up
  const auto start = std::chrono::steady_clock::now();
  const int64_t batches = BatchesFor(duration_ns);
  const auto end = std::chrono::steady_clock::now();
  const auto wall =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  return static_cast<double>(wall) /
         static_cast<double>(batches * kProbesPerInterval);
}

double MeasureMulti(int64_t duration_ns) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int64_t> total_batches{0};
  std::vector<std::thread> threads;
  const auto worker = [&] {
    BatchesFor(duration_ns / 4);  // warm-up (first-touch TLS buffers)
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    total_batches.fetch_add(BatchesFor(duration_ns));
  };
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(worker);
  }
  while (ready.load() < kThreads) {
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) {
    th.join();
  }
  const auto end = std::chrono::steady_clock::now();
  const auto wall =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  return static_cast<double>(wall) /
         static_cast<double>(total_batches.load() * kProbesPerInterval);
}

struct Result {
  double st = 0.0;
  double mt = 0.0;
  uint64_t epochs = 0;      // online only
  double duty_cycle = 1.0;  // tracing-on fraction (online only)
  double max_gap_ms = 0.0;  // worst rotation gap (online only)
};

// Baseline: one long batch tracing run, probe enabled (micro_probe's
// "enabled probe" configuration, plus the interval bookkeeping).
Result MeasureBatch(int64_t duration_ns) {
  vprof::StartTracing();
  Result r;
  r.st = MeasureSingle(duration_ns);
  vprof::StopTracing();
  vprof::StartTracing();
  r.mt = MeasureMulti(duration_ns);
  vprof::StopTracing();
  return r;
}

// Same loop with vprofd harvesting epochs underneath: tracing rotates every
// epoch and each harvested trace is folded into the streaming tree on the
// harvester thread. The measurement must span many rotation cycles so the
// reported ns/probe is the true time average of tracing-on epochs and the
// cheaper tracing-off rotation gaps.
Result MeasureOnline(int64_t duration_ns) {
  constexpr vprof::TimeNs kEpochNs = 20'000'000;  // 20 ms
  vprof::VprofdOptions options;
  options.root_function = "online_bench_root";
  options.epoch_ns = kEpochNs;
  vprof::Vprofd daemon(std::move(options));
  daemon.Start();
  Result r;
  r.st = MeasureSingle(duration_ns);
  r.mt = MeasureMulti(duration_ns);
  daemon.Stop();
  r.epochs = daemon.epochs();
  const double on_ns = static_cast<double>(r.epochs) * kEpochNs;
  const double gap_ns = static_cast<double>(daemon.total_gap_ns());
  r.duty_cycle = on_ns > 0.0 ? on_ns / (on_ns + gap_ns) : 0.0;
  r.max_gap_ms = static_cast<double>(daemon.max_gap_ns()) / 1e6;
  std::printf(
      "  (online run rotated %llu epochs, duty cycle %.2f, max gap %.2f ms)\n",
      static_cast<unsigned long long>(r.epochs), r.duty_cycle, r.max_gap_ms);
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader("online_overhead — probe cost with vprofd harvesting");

  const vprof::FuncId fid = vprof::RegisterFunction("online_bench_fn");
  vprof::DisableAllFunctions();
  vprof::SetFunctionEnabled(fid, true);

  // Each timed loop runs for a fixed wall duration spanning dozens of 20 ms
  // epochs plus their rotation gaps.
  const int64_t duration_ns = 2'000'000'000;  // 2 s per configuration

  // Probe cost with tracing off (the rotation-gap phase, measured alone).
  Result off;
  off.st = MeasureSingle(duration_ns / 4);
  off.mt = MeasureMulti(duration_ns / 4);

  const Result batch = MeasureBatch(duration_ns);
  const Result online = MeasureOnline(duration_ns);
  vprof::DisableAllFunctions();

  // The free-running loop's per-probe average is dominated by the cheap
  // tracing-off phase (it completes far more probes there). A fixed-work
  // workload is slowed by the TIME-weighted cost instead: the duty-cycle mix
  // of the tracing-on cost and the gap cost. Report both; accept on both.
  const double tw_st = online.duty_cycle * batch.st +
                       (1.0 - online.duty_cycle) * off.st;
  const double tw_mt = online.duty_cycle * batch.mt +
                       (1.0 - online.duty_cycle) * off.mt;

  const double ratio_st = batch.st > 0.0 ? online.st / batch.st : 0.0;
  const double ratio_mt = batch.mt > 0.0 ? online.mt / batch.mt : 0.0;
  const double tw_ratio_st = batch.st > 0.0 ? tw_st / batch.st : 0.0;
  const double tw_ratio_mt = batch.mt > 0.0 ? tw_mt / batch.mt : 0.0;

  std::printf("  %-24s %10s %10s\n", "configuration", "1 thread", "4 threads");
  std::printf("  %-24s %10.2f %10.2f\n", "tracing off", off.st, off.mt);
  std::printf("  %-24s %10.2f %10.2f\n", "batch enabled probe", batch.st,
              batch.mt);
  std::printf("  %-24s %10.2f %10.2f\n", "with harvester", online.st,
              online.mt);
  std::printf("  %-24s %10.2f %10.2f\n", "  time-weighted", tw_st, tw_mt);
  std::printf("  %-24s %10.2f %10.2f\n", "ratio", ratio_st, ratio_mt);
  std::printf("  %-24s %10.2f %10.2f\n", "  time-weighted", tw_ratio_st,
              tw_ratio_mt);

  const auto fixed3 = [](double v) { return bench::Json(v, 3); };
  const bench::Json report =
      bench::Json::Object()
          .Set("unit", "ns_per_probe")
          .Set("threads_mt", kThreads)
          .Set("probes_per_interval", kProbesPerInterval)
          .Set("batch_enabled_st", fixed3(batch.st))
          .Set("batch_enabled_mt", fixed3(batch.mt))
          .Set("disabled_tracing_st", fixed3(off.st))
          .Set("disabled_tracing_mt", fixed3(off.mt))
          .Set("online_enabled_st", fixed3(online.st))
          .Set("online_enabled_mt", fixed3(online.mt))
          .Set("online_timeweighted_st", fixed3(tw_st))
          .Set("online_timeweighted_mt", fixed3(tw_mt))
          .Set("ratio_st", fixed3(ratio_st))
          .Set("ratio_mt", fixed3(ratio_mt))
          .Set("ratio_timeweighted_st", fixed3(tw_ratio_st))
          .Set("ratio_timeweighted_mt", fixed3(tw_ratio_mt))
          .Set("online_epochs", online.epochs)
          .Set("online_duty_cycle", fixed3(online.duty_cycle))
          .Set("online_max_gap_ms", fixed3(online.max_gap_ms));
  if (!bench::WriteBenchJson("BENCH_online.json", report)) {
    return 1;
  }
  std::printf("  (acceptance: ratios < 2.0)\n");
  return ratio_st < 2.0 && ratio_mt < 2.0 && tw_ratio_st < 2.0 &&
                 tw_ratio_mt < 2.0
             ? 0
             : 1;
}
