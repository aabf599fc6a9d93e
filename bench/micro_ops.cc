// google-benchmark micro-benchmarks for the building blocks whose costs the
// system-level experiments rest on: probe fast/slow paths, synchronization
// wrappers, statistics accumulators, and index operations. Run directly:
//   build/bench/micro_ops [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include "src/minidb/btree.h"
#include "src/statkit/distributions.h"
#include "src/statkit/welford.h"
#include "src/vprof/probe.h"
#include "src/vprof/sync.h"
#include "src/vprof/task_queue.h"

namespace {

// --- probes -----------------------------------------------------------------

void BM_ProbeTracingOff(benchmark::State& state) {
  const vprof::FuncId fid = vprof::RegisterFunction("micro_probe_off");
  for (auto _ : state) {
    vprof::ScopedProbe probe(fid);
    benchmark::DoNotOptimize(&probe);
  }
}
BENCHMARK(BM_ProbeTracingOff);

void BM_ProbeDisabledFunction(benchmark::State& state) {
  const vprof::FuncId fid = vprof::RegisterFunction("micro_probe_disabled");
  vprof::DisableAllFunctions();
  vprof::StartTracing();
  for (auto _ : state) {
    vprof::ScopedProbe probe(fid);
    benchmark::DoNotOptimize(&probe);
  }
  vprof::StopTracing();
}
BENCHMARK(BM_ProbeDisabledFunction);

void BM_ProbeEnabledRecording(benchmark::State& state) {
  const vprof::FuncId fid = vprof::RegisterFunction("micro_probe_enabled");
  vprof::DisableAllFunctions();
  vprof::SetFunctionEnabled(fid, true);
  vprof::StartTracing();
  for (auto _ : state) {
    vprof::ScopedProbe probe(fid);
    benchmark::DoNotOptimize(&probe);
  }
  vprof::StopTracing();
  vprof::DisableAllFunctions();
}
BENCHMARK(BM_ProbeEnabledRecording);

void BM_ProbeFullTracerPath(benchmark::State& state) {
  const vprof::FuncId fid = vprof::RegisterFunction("micro_probe_dtrace");
  vprof::EnableFullTrace(true);
  vprof::StartTracing();
  for (auto _ : state) {
    vprof::ScopedProbe probe(fid);
    benchmark::DoNotOptimize(&probe);
  }
  vprof::StopTracing();
  vprof::EnableFullTrace(false);
}
BENCHMARK(BM_ProbeFullTracerPath);

// --- synchronization wrappers -------------------------------------------------

void BM_MutexUncontended(benchmark::State& state) {
  vprof::Mutex mu;
  for (auto _ : state) {
    std::lock_guard<vprof::Mutex> lock(mu);
    benchmark::DoNotOptimize(&mu);
  }
}
BENCHMARK(BM_MutexUncontended);

void BM_TaskQueuePushPop(benchmark::State& state) {
  vprof::TaskQueue<int> queue;
  for (auto _ : state) {
    queue.Push(1);
    benchmark::DoNotOptimize(queue.Pop());  // non-empty: does not wait
  }
}
BENCHMARK(BM_TaskQueuePushPop);

// --- statistics ---------------------------------------------------------------

void BM_WelfordAdd(benchmark::State& state) {
  statkit::StreamingMoments moments;
  double x = 0.0;
  for (auto _ : state) {
    moments.Add(x += 1.0);
  }
  benchmark::DoNotOptimize(moments.variance());
}
BENCHMARK(BM_WelfordAdd);

void BM_ZipfSample(benchmark::State& state) {
  statkit::ZipfGenerator zipf(static_cast<uint64_t>(state.range(0)), 0.99);
  statkit::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

// --- index --------------------------------------------------------------------

void BM_BTreeSearch(benchmark::State& state) {
  minidb::BTree tree(64);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    tree.Insert(i, static_cast<uint64_t>(i));
  }
  statkit::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Search(rng.NextInRange(0, n - 1)));
  }
}
BENCHMARK(BM_BTreeSearch)->Arg(1000)->Arg(100000);

void BM_BTreeInsert(benchmark::State& state) {
  minidb::BTree tree(64);
  int64_t key = 0;
  for (auto _ : state) {
    tree.Insert(key++, 1);
  }
  benchmark::DoNotOptimize(tree.Size());
}
BENCHMARK(BM_BTreeInsert);

}  // namespace

BENCHMARK_MAIN();
