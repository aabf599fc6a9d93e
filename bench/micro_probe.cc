// Probe hot-path microbenchmark. Emits BENCH_probe.json with ns/probe for
// the three paths a probe can take — tracing-off, disabled (tracing on but
// the function not selected), enabled (full invocation record), and the
// DTrace-style full tracer — each single- and multi-threaded. This file is
// the perf anchor for the runtime hot path: run it before and after any
// change to probe.h/runtime.cc/full_tracer.cc and compare the JSON.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/vprof/probe.h"
#include "src/vprof/registry.h"

namespace {

constexpr int kThreads = 4;

void ProbedFunc() {
  VPROF_FUNC("micro_probe_fn");
  // No body: the probe itself is the entire cost being measured.
}

// Runs `iters` probed calls on one thread and returns wall ns for the loop.
int64_t TimeLoop(int64_t iters) {
  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < iters; ++i) {
    ProbedFunc();
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
      .count();
}

// ns/probe from a single-threaded loop.
double MeasureSingle(int64_t iters) {
  TimeLoop(iters / 10);  // warm-up
  return static_cast<double>(TimeLoop(iters)) / static_cast<double>(iters);
}

// ns/probe from `kThreads` concurrent loops: wall time over total probes.
// On contended paths (the old global-mutex tracer) this surfaces convoying
// that a single-threaded loop never sees.
double MeasureMulti(int64_t iters_per_thread) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  const auto worker = [&] {
    TimeLoop(iters_per_thread / 10);  // warm-up (first-touch of TLS buffers)
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    TimeLoop(iters_per_thread);
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
         static_cast<double>(iters_per_thread * kThreads);
}

struct Result {
  double st = 0.0;  // single-threaded ns/probe
  double mt = 0.0;  // multi-threaded ns/probe (wall over total probes)
};

Result MeasurePath(bool tracing, bool enabled, bool full, int64_t iters) {
  const vprof::FuncId fid = vprof::RegisterFunction("micro_probe_fn");
  vprof::DisableAllFunctions();
  vprof::SetFunctionEnabled(fid, enabled);
  vprof::EnableFullTrace(full);
  Result r;
  if (tracing) {
    vprof::StartTracing();
  }
  r.st = MeasureSingle(iters);
  if (tracing) {
    vprof::StopTracing();
    vprof::StartTracing();
  }
  r.mt = MeasureMulti(iters / kThreads);
  if (tracing) {
    vprof::StopTracing();
  }
  vprof::EnableFullTrace(false);
  vprof::DisableAllFunctions();
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader("micro_probe — probe hot path cost (ns/probe)");

  // Record volume per measured loop stays bounded (the enabled path writes
  // one Invocation per call), so keep iteration counts path-specific.
  const Result off = MeasurePath(false, false, false, 40'000'000);
  const Result disabled = MeasurePath(true, false, false, 40'000'000);
  const Result enabled = MeasurePath(true, true, false, 4'000'000);
  const Result full = MeasurePath(true, false, true, 1'000'000);

  std::printf("  %-22s %10s %10s\n", "path", "1 thread", "4 threads");
  std::printf("  %-22s %10.2f %10.2f\n", "tracing off", off.st, off.mt);
  std::printf("  %-22s %10.2f %10.2f\n", "disabled probe", disabled.st,
              disabled.mt);
  std::printf("  %-22s %10.2f %10.2f\n", "enabled probe", enabled.st,
              enabled.mt);
  std::printf("  %-22s %10.2f %10.2f\n", "full trace", full.st, full.mt);

  const auto fixed3 = [](double v) { return bench::Json(v, 3); };
  const bench::Json report =
      bench::Json::Object()
          .Set("unit", "ns_per_probe")
          .Set("threads_mt", kThreads)
          .Set("off_st", fixed3(off.st))
          .Set("off_mt", fixed3(off.mt))
          .Set("disabled_st", fixed3(disabled.st))
          .Set("disabled_mt", fixed3(disabled.mt))
          .Set("enabled_st", fixed3(enabled.st))
          .Set("enabled_mt", fixed3(enabled.mt))
          .Set("full_st", fixed3(full.st))
          .Set("full_mt", fixed3(full.mt));
  return bench::WriteBenchJson("BENCH_probe.json", report) ? 0 : 1;
}
