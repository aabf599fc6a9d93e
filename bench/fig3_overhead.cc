// Reproduces paper Figure 3: VProfiler's online profiling overhead as the
// number of instrumented children under a profiled function grows from 1 to
// 500, measured on the TPC-C workload (latency and throughput overhead vs.
// an uninstrumented run). Also reproduces the Section 4.1 comparison against
// a DTrace-style binary tracer, which the paper reports to be 10-20x more
// expensive.
//
// Paper: VProfiler overhead stays below 14% in both latency and throughput
// across the sweep.
#include <string>

#include "bench/common.h"
#include "src/vprof/full_tracer.h"
#include "src/vprof/probe.h"

namespace {

// The "function with N children": each transaction executes the wrapper plus
// N short child functions, exactly the shape the paper instruments.
std::vector<vprof::FuncId> g_children;
vprof::FuncId g_wrapper = vprof::kInvalidFunc;

void ChildWork() {
  // ~300ns of real work per child, so instrumented work dominates the probe
  // itself, as in a real codebase.
  volatile uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < 40; ++i) {
    h = (h ^ static_cast<uint64_t>(i)) * 1099511628211ull;
  }
}

void RunChildren(int count) {
  vprof::ScopedProbe wrapper(g_wrapper);
  for (int i = 0; i < count; ++i) {
    vprof::ScopedProbe probe(g_children[static_cast<size_t>(i)]);
    ChildWork();
  }
}

struct RunOutcome {
  double mean_latency_ms = 0.0;
  double throughput = 0.0;
};

RunOutcome RunWorkload(minidb::Engine* engine, int children, int txns) {
  // Single connection: lock waits and group-commit queueing would otherwise
  // add workload noise larger than the probe overhead being measured.
  workload::TpccOptions options = bench::TpccQuick(1, txns);
  workload::TpccDriver driver(nullptr, options);
  const auto result = driver.RunWith(
      [&](const minidb::TxnRequest& request) {
        RunChildren(children);
        return engine->Execute(request).committed;
      },
      engine->config().warehouses);
  RunOutcome outcome;
  outcome.mean_latency_ms = statkit::Summarize(result.latencies_ns).mean / 1e6;
  outcome.throughput = result.throughput_tps;
  return outcome;
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 3 — profiling overhead vs number of children");

  g_wrapper = vprof::RegisterFunction("fig3_wrapper");
  for (int i = 0; i < 500; ++i) {
    g_children.push_back(
        vprof::RegisterFunction("fig3_child_" + std::to_string(i)));
  }

  // Low-noise configuration: calm disks, no contention — the workload's own
  // latency variance must be small relative to the probe overhead being
  // measured.
  minidb::EngineConfig config = bench::MysqlMemoryResidentConfig();
  config.warehouses = 8;
  config.log_disk.fsync_sigma = 0.05;
  config.log_disk.fsync_spike_prob = 0.0;
  config.data_disk.read_sigma = 0.05;
  minidb::Engine engine(config);
  const int kTxns = 1200;
  RunWorkload(&engine, 500, kTxns);  // full-length warm-up: populate the pool

  // Traced warm-up: first-run tracing costs (trace buffer growth) must not
  // be charged to the first measured point.
  vprof::SetFunctionEnabled(g_wrapper, true);
  vprof::StartTracing();
  RunWorkload(&engine, 500, 200);
  vprof::StopTracing();
  vprof::DisableAllFunctions();

  // Baseline: tracing fully disabled (probes are a relaxed-load no-op).
  const RunOutcome base = RunWorkload(&engine, 500, kTxns);
  std::printf("  baseline (no tracing): mean=%.3f ms, %.0f tps\n\n",
              base.mean_latency_ms, base.throughput);
  std::printf("  %-10s %-18s %-18s\n", "children", "latency overhead",
              "throughput overhead");

  for (int children : {1, 10, 50, 100, 200, 500}) {
    vprof::DisableAllFunctions();
    vprof::SetFunctionEnabled(g_wrapper, true);
    for (int i = 0; i < children; ++i) {
      vprof::SetFunctionEnabled(g_children[static_cast<size_t>(i)], true);
    }
    vprof::StartTracing();
    const RunOutcome traced = RunWorkload(&engine, 500, kTxns);
    vprof::StopTracing();
    const double latency_overhead =
        (traced.mean_latency_ms - base.mean_latency_ms) / base.mean_latency_ms *
        100.0;
    const double throughput_overhead =
        (base.throughput - traced.throughput) / base.throughput * 100.0;
    std::printf("  %-10d %6.1f%%            %6.1f%%\n", children,
                latency_overhead, throughput_overhead);
  }
  vprof::DisableAllFunctions();
  std::printf("  paper: all points below 14%% overhead\n");

  // DTrace-style comparison: every probe takes the slow global-lock +
  // symbol-hash path regardless of selection.
  vprof::EnableFullTrace(true);
  vprof::StartTracing();
  const RunOutcome full = RunWorkload(&engine, 500, kTxns);
  vprof::StopTracing();
  vprof::EnableFullTrace(false);
  const auto stats = vprof::GetFullTracerStats();
  const double full_latency_overhead =
      (full.mean_latency_ms - base.mean_latency_ms) / base.mean_latency_ms *
      100.0;
  std::printf("\n  DTrace-style full tracer: latency overhead %.1f%% "
              "(distinct functions traced: %llu)\n",
              full_latency_overhead,
              static_cast<unsigned long long>(stats.distinct_functions));
  std::printf("  paper: binary-injection tracing costs 10-20x VProfiler's "
              "source-level probes\n");
  return 0;
}
