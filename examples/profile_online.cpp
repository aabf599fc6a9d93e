// Profile minidb with the always-on service (vprofd) instead of the batch
// profiler: the workload never stops while the epoch harvester rotates
// tracing, the streaming tree folds each epoch, and the refinement
// controller descends into high-variance factors on its own — starting from
// top-level probes only — until the instrumentation is stable.
//
// The final step re-runs the classic offline Profiler on the same engine
// and checks that the online service converged to the same top factors
// (the paper's Table 4 picture).
//
// vprofd persists every epoch to profile_online_history/ in the working
// directory, emptied at the start of each run; `statstore_inspect
// profile_online_history` reads it.
//
// Build & run:  ./build/examples/profile_online
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/minidb/engine.h"
#include "src/vprof/analysis/profiler.h"
#include "src/vprof/service/vprofd.h"
#include "src/workload/tpcc.h"

namespace {

constexpr char kHistoryDir[] = "profile_online_history";

std::set<std::string> TopVarianceFactors(const std::vector<vprof::Factor>& factors,
                                         const std::vector<std::string>& names,
                                         size_t k) {
  std::set<std::string> top;
  for (const vprof::Factor& factor : factors) {
    if (factor.is_covariance()) {
      continue;
    }
    top.insert(factor.Label(names));
    if (top.size() == k) {
      break;
    }
  }
  return top;
}

}  // namespace

int main() {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 2;
  minidb::Engine engine(config);

  workload::TpccOptions options;
  options.threads = 8;
  options.transactions_per_thread = 200;
  workload::TpccDriver driver(&engine, options);
  driver.Run();  // warm-up

  std::printf("Step 1: start the workload, then attach vprofd.\n\n");
  std::atomic<bool> stop{false};
  std::thread load([&] { driver.RunUntil(stop); });

  vprof::VprofdOptions daemon_options;
  daemon_options.epoch_ns = 120'000'000;  // 120 ms epochs
  daemon_options.controller.min_weight = 50.0;
  std::filesystem::remove_all(kHistoryDir);
  daemon_options.history.dir = kHistoryDir;
  auto daemon = minidb::Engine::StartOnlineProfiler(std::move(daemon_options));

  // Let the controller refine until it has been stable for 3 epochs (or
  // give up after 40).
  uint64_t last_logged = 0;
  while (daemon->epochs() < 40 && !daemon->Converged(3)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const uint64_t epoch = daemon->epochs();
    if (epoch != last_logged) {
      last_logged = epoch;
      const vprof::ControllerStatus status = daemon->controller_status();
      std::printf("  epoch %2llu: %2zu probes enabled, %d flips, %d stable\n",
                  static_cast<unsigned long long>(epoch),
                  status.instrumented.size(), status.last_changes,
                  status.stable_steps);
    }
  }
  daemon->Stop();
  stop.store(true);
  load.join();

  const vprof::OnlineTreeSnapshot snapshot = daemon->Snapshot();
  const vprof::ControllerStatus status = daemon->controller_status();
  std::printf("\nconverged=%s after %llu epochs (%llu expansions, "
              "%llu retirements); rotation gap max=%.2f ms\n\n",
              daemon->Converged(3) ? "yes" : "no",
              static_cast<unsigned long long>(daemon->epochs()),
              static_cast<unsigned long long>(status.expansions),
              static_cast<unsigned long long>(status.retirements),
              static_cast<double>(daemon->max_gap_ns()) / 1e6);

  std::printf("online factor selection:\n");
  int rank = 1;
  for (const vprof::Factor& factor : status.selection) {
    std::printf("  %d | %s | %.1f%%\n", rank++,
                factor.Label(snapshot.function_names).c_str(),
                factor.contribution * 100.0);
  }

  std::printf("\nPrometheus exposition excerpt:\n");
  const std::string metrics = daemon->MetricsText();
  std::printf("%.*s...\n\n", 600, metrics.c_str());

  std::printf("Step 2: offline Profiler on the same engine for comparison.\n\n");
  vprof::CallGraph graph;
  minidb::Engine::RegisterCallGraph(&graph);
  vprof::Profiler profiler("run_transaction", &graph, [&] { driver.Run(); });
  const vprof::ProfileResult offline = profiler.Run();
  std::printf("%s\n", offline.Report().c_str());

  const std::set<std::string> online_top =
      TopVarianceFactors(status.selection, snapshot.function_names, 3);
  const std::set<std::string> offline_top =
      TopVarianceFactors(offline.factors, offline.function_names, 3);
  size_t overlap = 0;
  for (const std::string& label : online_top) {
    overlap += offline_top.count(label);
  }
  std::printf("top-factor agreement (online vs offline): %zu of %zu\n",
              overlap, offline_top.size());
  return overlap >= 2 ? 0 : 1;
}
