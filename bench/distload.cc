// Cross-service distributed load benchmark (ISSUE: dist tier). Emits
// BENCH_dist.json.
//
// The full two-tier topology in one process (bench/two_tier.h): an open-loop
// generator drives kHttpGet into the front NetServer, whose workers run
// httpd's request path and call minidb through dist::BackendPool (rpc:call
// over AsyncClient) behind a second NetServer.
// Three utilization points bracket the measured two-tier capacity; at each,
// a traced run is split by tier roster, stitched by dist::StitchTraces, and
// decomposed once end-to-end — front-tier factors (net:queue_wait, the
// allocator chain) and backend factors (lock waits, the WAL path) compete in
// the same Eq. 2 ranking. Per-tier shares come from the online path
// (OnlineVarianceTree per tier merged by DistMonitor) and are persisted as
// tier:* statstore series, then read back bit-exact.
//
// Cold-start mode rebuilds the stack with BackendPool spawning the backend
// on the first request; the spawn cost must rank as dist:cold_start.
//
// Each run starts from an empty history store. `--runs N` repeats the whole
// run N times in this process: capacity is the median_low of the runs'
// capacities, each load point is taken whole from the run with the
// median_low p99 there, the cold-start section from the run with the
// median_low dist:cold_start contribution (0 when unranked), and the
// acceptance verdict is computed once, from the merged points.
//
// Acceptance (the exit status and the JSON's acceptance block): at the
// overload point the merged top-3 holds BOTH a backend factor and a front
// factor; in cold-start mode dist:cold_start ranks in the top-3.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/two_tier.h"
#include "src/dist/monitor.h"
#include "src/statstore/store.h"
#include "src/vprof/service/history.h"

namespace {

constexpr size_t kConnections = 256;
constexpr size_t kDispatchDepth = 32;
constexpr int kFrontNetWorkers = 2;
constexpr int kBackendWorkers = 2;
constexpr double kCalibrationRate = 4000.0;
constexpr double kCalibrationSeconds = 0.8;
constexpr double kMeasureSeconds = 1.2;
constexpr double kTraceSeconds = 0.8;
const double kUtilizations[] = {0.5, 0.9, 1.4};
constexpr char kStoreDir[] = "bench_dist_store";

// A load point plus the online per-tier view of its traced run.
struct DistPoint : bench::LoadPoint {
  std::vector<dist::TierStats> tiers;
};

// One run: capacity, the load points, and the cold-start stack's point.
struct DistRun {
  double capacity = 0.0;
  std::vector<DistPoint> points;
  DistPoint cold_point;
  uint64_t cold_starts = 0;
};

// The two-tier stack, or exit 1 when it does not come up.
std::unique_ptr<bench::TwoTierStack> MakeStack(bool cold_start) {
  bench::TwoTierOptions options;
  options.front_workers = kFrontNetWorkers;
  options.backend_workers = kBackendWorkers;
  options.dispatch_depth = kDispatchDepth;
  options.load_connections = kConnections;
  options.seed = 0xd157;
  options.cold_start = cold_start;
  auto stack = std::make_unique<bench::TwoTierStack>(options);
  if (!stack->ready) {
    std::fprintf(stderr, "distload: the two-tier stack failed to start\n");
    std::exit(1);
  }
  return stack;
}

// One traced run: stitched offline top-3 plus the online per-tier view
// (folded trees merged by DistMonitor), persisted as one statstore epoch.
void TracePoint(bench::TwoTierStack* stack,
                const workload::OpenLoopOptions& options,
                uint64_t epoch, statstore::StatStore* store,
                DistPoint* point) {
  std::vector<vprof::Trace> tiers;
  const dist::StitchResult stitched =
      stack->Stitch(bench::TraceOpenLoop(options), &tiers);
  point->top_factors = bench::OpenLoopTopFactors(
      stitched.trace, stack->graph, stack->net_root);

  vprof::OnlineTreeOptions tree_options;
  tree_options.path_options.queue_wait_factor = net::kQueueWaitFactor;
  vprof::OnlineVarianceTree front_tree(tree_options);
  vprof::OnlineVarianceTree backend_tree(tree_options);
  front_tree.Fold(tiers[0]);
  backend_tree.Fold(tiers[1]);

  dist::DistMonitor monitor;
  dist::TierConfig front_cfg;
  front_cfg.name = "front";
  front_cfg.is_front = true;
  front_cfg.root = stack->net_root;
  monitor.RegisterTier(front_cfg);
  dist::TierConfig backend_cfg;
  backend_cfg.name = "minidb";
  backend_cfg.root = vprof::RegisterFunction("run_transaction");
  monitor.RegisterTier(backend_cfg);
  monitor.UpdateTier("front", front_tree.Snapshot());
  monitor.UpdateTier("minidb", backend_tree.Snapshot());

  point->tiers = monitor.Snapshot().tiers;
  if (store != nullptr &&
      store->Append(monitor.Sample(epoch)) != statstore::AppendStatus::kOk) {
    std::fprintf(stderr, "distload: statstore append failed at epoch %llu\n",
                 static_cast<unsigned long long>(epoch));
    std::exit(1);
  }
}

void PrintPoints(const std::vector<DistPoint>& points) {
  std::printf("\n  %5s %10s %10s %8s %8s %9s %9s %9s  %s\n", "util",
              "offered/s", "acked/s", "acked", "rejected", "p50 (ms)",
              "p99 (ms)", "p999(ms)", "merged top factors (tier shares)");
  for (const DistPoint& p : points) {
    std::string desc = bench::FactorList(p.top_factors);
    for (const dist::TierStats& t : p.tiers) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " [%s %.2f]", t.name.c_str(), t.share);
      desc += buf;
    }
    std::printf("  %5.2f %10.0f %10.0f %8llu %8llu %9.3f %9.3f %9.3f  %s\n",
                p.utilization, p.offered_per_s, p.run.achieved_per_s,
                static_cast<unsigned long long>(p.run.acked),
                static_cast<unsigned long long>(p.run.rejected),
                p.latency.p50_ms, p.latency.p99_ms, p.latency.p999_ms,
                desc.c_str());
  }
}

// Calibrates capacity, sweeps kUtilizations on a fresh history store, then
// traces a cold-start stack. Exits with status 1 if the stack cannot be
// set up or the store refuses an append.
DistRun RunOnce() {
  DistRun run;
  const auto stack = MakeStack(/*cold_start=*/false);

  const workload::OpenLoopResult calibration = workload::RunOpenLoop(
      stack->Load(kCalibrationRate, kCalibrationSeconds, /*seed=*/7));
  if (calibration.connect_failed || calibration.acked == 0) {
    std::fprintf(stderr, "distload: calibration run failed\n");
    std::exit(1);
  }
  run.capacity = calibration.achieved_per_s;
  std::printf("\n  calibration: two-tier capacity ~%.0f req/s\n",
              run.capacity);

  std::filesystem::remove_all(kStoreDir);
  statstore::StoreOptions store_options;
  store_options.dir = kStoreDir;
  statstore::StatStore store(store_options);
  if (!store.Open()) {
    std::fprintf(stderr, "distload: statstore open failed\n");
    std::exit(1);
  }

  uint64_t seed = 2000;
  uint64_t epoch = 1;
  for (const double utilization : kUtilizations) {
    DistPoint point;
    point.utilization = utilization;
    point.offered_per_s = run.capacity * utilization;
    bench::MeasureLoad(stack->Load(point.offered_per_s, kMeasureSeconds, seed),
                       &point);
    TracePoint(stack.get(),
               stack->Load(point.offered_per_s, kTraceSeconds, seed + 1),
               epoch, &store, &point);
    run.points.push_back(std::move(point));
    seed += 10;
    ++epoch;
  }
  store.Seal();

  // Prove the persisted tier series round-trips.
  const std::vector<statstore::SeriesPoint> persisted =
      store.Query(vprof::TierSeriesName("minidb", "share"), 0, epoch);
  std::printf("  statstore: %zu tier:minidb:share points persisted\n",
              persisted.size());

  // Cold-start mode: a fresh stack whose backend does not exist until the
  // first request; trace covers the spawn.
  const auto cold_stack = MakeStack(/*cold_start=*/true);
  run.cold_point.offered_per_s = run.capacity * 0.4;
  TracePoint(cold_stack.get(),
             cold_stack->Load(run.cold_point.offered_per_s, 0.5,
                              /*seed=*/4242),
             epoch, nullptr, &run.cold_point);
  run.cold_starts = cold_stack->pool->cold_starts();
  return run;
}

double ColdStartShare(const DistRun& run) {
  for (const bench::FactorShare& f : run.cold_point.top_factors) {
    if (f.name == dist::kColdStartFunc) {
      return f.contribution;
    }
  }
  return 0.0;
}

DistRun Merge(const std::vector<DistRun>& runs) {
  DistRun merged = runs.front();
  merged.capacity =
      bench::MedianLowRun(runs, [](const DistRun& r) { return r.capacity; })
          .capacity;
  for (size_t i = 0; i < merged.points.size(); ++i) {
    const auto p99 = [i](const DistRun& r) {
      return r.points[i].latency.p99_ms;
    };
    merged.points[i] = bench::MedianLowRun(runs, p99).points[i];
  }
  const DistRun& cold = bench::MedianLowRun(runs, ColdStartShare);
  merged.cold_point = cold.cold_point;
  merged.cold_starts = cold.cold_starts;
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  const int runs = bench::RunsOption(argc, argv);
  if (runs == 0) {
    return 2;
  }
  bench::PrintHeader(
      "distload — end-to-end variance decomposed across httpd -> minidb over "
      "the wire");
  std::printf("Expected shape: below saturation backend factors (locks, WAL)\n"
              "dominate; past it the front queue joins them. Cold-start mode\n"
              "must rank dist:cold_start.\n");

  std::vector<DistRun> all_runs;
  for (int run = 0; run < runs; ++run) {
    all_runs.push_back(RunOnce());
  }
  const DistRun merged = Merge(all_runs);
  PrintPoints(merged.points);

  bool backend_at_overload = false;
  bool front_at_overload = false;
  for (const bench::FactorShare& f : merged.points.back().top_factors) {
    backend_at_overload = backend_at_overload || bench::IsBackendFactor(f.name);
    front_at_overload = front_at_overload || bench::IsFrontFactor(f.name);
  }
  bool cold_in_top3 = false;
  std::string cold_desc;
  for (const bench::FactorShare& f : merged.cold_point.top_factors) {
    cold_in_top3 = cold_in_top3 || f.name == dist::kColdStartFunc;
    cold_desc += f.name + " ";
  }
  std::printf("\n  cold start: %llu spawn(s); top-3: %s\n",
              static_cast<unsigned long long>(merged.cold_starts),
              cold_desc.c_str());
  std::printf("  acceptance: backend factor at overload: %s; front factor at "
              "overload: %s; dist:cold_start ranked: %s\n",
              backend_at_overload ? "yes" : "NO",
              front_at_overload ? "yes" : "NO", cold_in_top3 ? "yes" : "NO");

  bench::Json points = bench::Json::Array();
  for (const DistPoint& p : merged.points) {
    bench::Json tier_shares = bench::Json::Object();
    for (const dist::TierStats& t : p.tiers) {
      tier_shares.Set(t.name, t.share);
    }
    points.Push(bench::LoadPointJson(p).Set("tier_shares", tier_shares));
  }
  const bench::Json report =
      bench::Json::Object()
          .Set("benchmark", "distload")
          .Set("connections", kConnections)
          .Set("front_net_workers", kFrontNetWorkers)
          .Set("backend_workers", kBackendWorkers)
          .Set("runs_merged", runs)
          .Set("capacity_per_s", bench::Json(merged.capacity, 1))
          .Set("points", points)
          .Set("cold_start",
               bench::Json::Object()
                   .Set("spawns", merged.cold_starts)
                   .Set("spawn_delay_ms", bench::kColdSpawnDelayMs)
                   .Set("top_factors",
                        bench::FactorsJson(merged.cold_point.top_factors)))
          .Set("acceptance",
               bench::Json::Object()
                   .Set("backend_factor_in_top3_at_overload",
                        backend_at_overload)
                   .Set("front_factor_in_top3_at_overload", front_at_overload)
                   .Set("cold_start_in_top3", cold_in_top3));
  if (!bench::WriteBenchJson("BENCH_dist.json", report)) {
    return 1;
  }
  return (backend_at_overload && front_at_overload && cold_in_top3) ? 0 : 1;
}
