// Profile a two-tier deployment end to end: an httpd front tier calls a
// minidb backend over real localhost sockets (framed RPCs with trace-context
// propagation), and the cross-service profiling layer decomposes the
// end-to-end latency variance across BOTH tiers in one tree.
//
// Two views are shown:
//   1. The online DistMonitor view — per-tier OnlineVarianceTree snapshots
//      merged under the synthetic dist:request root, with each backend's
//      share of the front's variance (what vprofd exports as tier:* series).
//   2. The offline stitched view — dist::StitchTraces joins the per-tier
//      traces on span ids, so the critical-path walker crosses the wire and
//      front factors (queue wait, allocator) compete with backend factors
//      (lock waits, the WAL path) in a single Eq. 2 ranking.
//
// The final step profiles the same engine single-process (the paper's
// Table 4 setting) and checks that the backend's top factor seen THROUGH
// the distributed tier matches the factors the classic profiler finds —
// the wire must not change what the decomposition blames.
//
// Build & run:  ./build/examples/profile_dist
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/dist/backend_pool.h"
#include "src/dist/monitor.h"
#include "src/dist/stitcher.h"
#include "src/dist/tier.h"
#include "src/httpd/server.h"
#include "src/minidb/engine.h"
#include "src/net/frontend.h"
#include "src/net/server.h"
#include "src/statkit/rng.h"
#include "src/statkit/summary.h"
#include "src/vprof/analysis/factor_selection.h"
#include "src/vprof/analysis/profiler.h"
#include "src/vprof/analysis/variance_tree.h"
#include "src/workload/openloop.h"
#include "src/workload/tpcc.h"

namespace {

constexpr int kWarehouses = 1;  // Payment serializes -> lock waits dominate
// 4 backend workers mirror the 4-thread TPC-C driver below. The 2 front
// workers, each holding its request through the RPC, bound the backend's
// concurrency at 2.
constexpr int kBackendWorkers = 4;
constexpr double kRatePerSec = 1100.0;
constexpr double kRunSeconds = 1.2;

minidb::EngineConfig EngineConfig() {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = kWarehouses;
  return config;
}

std::set<std::string> TopLabels(const std::vector<vprof::Factor>& factors,
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
  std::printf("Step 1: bring up the two-tier stack (httpd -> minidb over "
              "localhost).\n\n");

  vprof::CallGraph graph;
  minidb::Engine::RegisterCallGraph(&graph);
  httpd::HttpServer::RegisterCallGraph(&graph);
  net::NetServer::RegisterNetCallGraph(&graph, "process_request");
  net::NetServer::RegisterNetCallGraph(&graph, "run_transaction");
  dist::RegisterDistCallGraph(&graph, "run_transaction");
  const vprof::FuncId net_root = vprof::RegisterFunction(net::kNetRootFunc);

  dist::SpanLog spans;

  minidb::Engine engine(EngineConfig());
  net::NetServerOptions backend_options;
  backend_options.workers = kBackendWorkers;
  backend_options.span_sink = spans.ServerSink();
  net::NetServer backend(backend_options, net::MakeMinidbHandler(&engine));
  if (!backend.Start()) {
    std::fprintf(stderr, "backend failed to start\n");
    return 1;
  }

  dist::BackendPoolOptions pool_options;
  pool_options.service = net::ServiceId::kMinidb;
  pool_options.connections = 4;
  pool_options.port = backend.port();
  pool_options.span_sink = spans.ClientSink();
  dist::BackendPool pool(pool_options);
  if (!pool.Warm()) {
    std::fprintf(stderr, "backend pool failed to warm\n");
    return 1;
  }

  std::mutex gen_mu;
  statkit::Rng rng(0xd15e);
  workload::TpccGenerator gen{workload::TpccOptions{}, kWarehouses};
  httpd::HttpdConfig httpd_config;
  httpd_config.backend_call = [&](uint64_t) {
    net::Frame request;
    request.type = net::MsgType::kTxn;
    {
      std::lock_guard<std::mutex> lock(gen_mu);
      request.txn = gen.Next(rng);
    }
    net::Frame reply;
    (void)pool.Call(std::move(request), &reply);
  };
  httpd::HttpServer http(httpd_config);
  net::NetServerOptions front_options;
  front_options.workers = 2;
  net::NetServer front(front_options, net::MakeHttpdHandler(&http));
  if (!front.Start()) {
    std::fprintf(stderr, "front failed to start\n");
    return 1;
  }

  std::printf("Step 2: traced open-loop run (%.0f req/s for %.1f s).\n\n",
              kRatePerSec, kRunSeconds);
  workload::OpenLoopOptions load;
  load.port = front.port();
  load.connections = 128;
  load.duration_s = kRunSeconds;
  load.arrivals.rate_per_sec = kRatePerSec;
  load.seed = 42;
  load.make_request = [](uint64_t i) {
    net::Frame frame;
    frame.type = net::MsgType::kHttpGet;
    frame.file_id = i % 4;
    return frame;
  };

  const size_t registered = vprof::RegisteredFunctionCount();
  for (vprof::FuncId id = 0; id < registered; ++id) {
    vprof::SetFunctionEnabled(id, true);
  }
  vprof::StartTracing();
  const workload::OpenLoopResult run = workload::RunOpenLoop(load);
  const vprof::Trace trace = vprof::StopTracing();
  vprof::DisableAllFunctions();
  if (run.acked == 0) {
    std::fprintf(stderr, "no requests completed\n");
    return 1;
  }
  const statkit::Summary latency = statkit::Summarize(
      std::vector<double>(run.latencies_ns.begin(), run.latencies_ns.end()));
  std::printf("  %llu acked, p99 %.2f ms\n\n",
              static_cast<unsigned long long>(run.acked), latency.p99 / 1e6);

  // Per-tier split: the backend NetServer's threads are the minidb tier,
  // everything else (loadgen, the front NetServer, RPC loop) is front.
  const std::vector<vprof::Trace> tiers =
      dist::SplitByTids(trace, {{}, backend.ProfiledTids()},
                        /*default_index=*/0);

  std::printf("Step 3: online view — DistMonitor's merged tree.\n\n");
  vprof::OnlineTreeOptions tree_options;
  tree_options.path_options.queue_wait_factor = net::kQueueWaitFactor;
  vprof::OnlineVarianceTree front_tree(tree_options);
  vprof::OnlineVarianceTree backend_tree(tree_options);
  front_tree.Fold(tiers[0]);
  backend_tree.Fold(tiers[1]);

  dist::DistMonitor monitor;
  dist::TierConfig front_tier;
  front_tier.name = "front";
  front_tier.is_front = true;
  front_tier.root = net_root;
  monitor.RegisterTier(front_tier);
  dist::TierConfig backend_tier;
  backend_tier.name = "minidb";
  backend_tier.root = vprof::RegisterFunction("run_transaction");
  monitor.RegisterTier(backend_tier);
  monitor.UpdateTier("front", front_tree.Snapshot());
  monitor.UpdateTier("minidb", backend_tree.Snapshot());
  std::printf("%s\n", monitor.ToText(graph, /*top_k=*/4).c_str());

  std::printf("Step 4: offline view — stitched cross-tier decomposition.\n\n");
  dist::TierTrace front_view;
  front_view.name = "front";
  front_view.service = net::ServiceId::kFront;
  front_view.trace = tiers[0];
  front_view.client_spans = spans.ClientSpans();
  dist::TierTrace backend_view;
  backend_view.name = "minidb";
  backend_view.service = net::ServiceId::kMinidb;
  backend_view.trace = tiers[1];
  backend_view.server_spans = spans.ServerSpans();
  backend_view.clock_offset_ns = pool.calibration().offset_ns;
  const dist::StitchResult stitched =
      dist::StitchTraces(front_view, {backend_view});
  std::printf("  %llu spans matched, %llu cross-tier edges injected\n",
              static_cast<unsigned long long>(stitched.stats.matched_spans),
              static_cast<unsigned long long>(stitched.stats.injected_edges));

  vprof::CriticalPathOptions path_options;
  path_options.queue_wait_factor = net::kQueueWaitFactor;
  const vprof::VarianceAnalysis merged(stitched.trace, path_options);
  const std::vector<vprof::Factor> merged_factors = vprof::AggregateFactors(
      merged, graph, net_root, vprof::SpecificityKind::kQuadratic);
  int rank = 1;
  for (const vprof::Factor& factor : merged_factors) {
    if (factor.is_covariance()) {
      continue;
    }
    std::printf("  %d | %s | %.1f%%\n", rank++,
                factor.Label(stitched.trace.function_names).c_str(),
                factor.contribution * 100.0);
    if (rank > 5) {
      break;
    }
  }

  front.Shutdown();
  http.Shutdown();
  pool.Shutdown();
  backend.Shutdown();

  // What did the distributed view blame INSIDE the backend? Rank the
  // backend tier on its own root, exactly as a per-tier vprofd would.
  const vprof::VarianceAnalysis backend_only(tiers[1], path_options);
  const std::vector<vprof::Factor> backend_factors = vprof::AggregateFactors(
      backend_only, graph, vprof::RegisterFunction("run_transaction"),
      vprof::SpecificityKind::kQuadratic);
  const std::set<std::string> dist_backend_top =
      TopLabels(backend_factors, tiers[1].function_names, 3);

  std::printf("\nStep 5: single-process profile of the same engine "
              "(Table 4 setting).\n\n");
  minidb::Engine solo(EngineConfig());
  workload::TpccOptions tpcc;
  tpcc.threads = 4;
  tpcc.transactions_per_thread = 400;
  workload::TpccDriver driver(&solo, tpcc);
  driver.Run();  // warm-up
  vprof::Profiler profiler("run_transaction", &graph, [&] { driver.Run(); });
  const vprof::ProfileResult offline = profiler.Run();
  const std::set<std::string> solo_top =
      TopLabels(offline.all_factors, offline.function_names, 5);

  std::printf("  backend top factors through the wire:");
  for (const std::string& label : dist_backend_top) {
    std::printf(" %s", label.c_str());
  }
  std::printf("\n  single-process top factors:         ");
  for (const std::string& label : solo_top) {
    std::printf(" %s", label.c_str());
  }

  // The wire must not change the blame: the distributed backend tier's #1
  // factor has to be one the single-process profiler also ranks highly.
  const std::string backend_top =
      dist_backend_top.empty() ? "" : *dist_backend_top.begin();
  size_t overlap = 0;
  for (const std::string& label : dist_backend_top) {
    overlap += solo_top.count(label);
  }
  std::printf("\n\n  agreement: %zu of %zu backend factors also in the "
              "single-process top-5\n",
              overlap, dist_backend_top.size());
  const bool pass = overlap >= 1 && !backend_top.empty();
  std::printf("  %s\n", pass ? "PASS: the distributed decomposition matches "
                               "the single-process picture."
                             : "FAIL: distributed and single-process "
                               "decompositions disagree.");
  return pass ? 0 : 1;
}
