// Open-loop network load benchmark (ISSUE: network front-end). Emits
// BENCH_net.json.
//
// A minidb engine sits behind the epoll NetServer; the open-loop generator
// offers Poisson and bursty (MMPP) arrivals over >= 1000 concurrent loopback
// connections at three utilization points bracketing the measured capacity.
// At each point the harness reports acked-vs-offered throughput, the shed
// (503) count, p50/p99/p999 latency measured from the SCHEDULED arrival
// (coordinated-omission free), and the variance-tree top-3 from a traced
// run whose intervals are anchored at socket readability.
//
// Expected shape: below saturation the top factors are the engine's own
// (locks, log I/O); past saturation the dispatch queue dominates and the
// "net:queue_wait" factor — the enqueue-to-dequeue gap recovered by the
// critical-path walker's created-by edges — enters the top-3. Bursty
// arrivals at the same mean rate push the tail (and the queue factor's
// contribution) up well before mean utilization reaches 1: variance in the
// arrival process becomes variance in the latency distribution.
//
// Acceptance (driver-checked): a net-side factor ranks in the top-3 at the
// overload point.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/net/frontend.h"
#include "src/net/server.h"
#include "src/statkit/rng.h"
#include "src/workload/openloop.h"

namespace {

constexpr size_t kConnections = 1024;
constexpr size_t kDispatchDepth = 64;
constexpr int kWorkers = 2;
constexpr int kWarehouses = 4;
constexpr double kCalibrationRate = 6000.0;  // well past any plausible capacity
constexpr double kCalibrationSeconds = 0.8;
constexpr double kMeasureSeconds = 1.5;
constexpr double kTraceSeconds = 1.0;
// Offered-load points as multiples of measured capacity: light, near-knee,
// overload.
const double kUtilizations[] = {0.5, 0.9, 1.4};

struct Harness {
  minidb::Engine engine;
  net::NetServer server;

  explicit Harness(size_t dispatch_depth)
      : engine(EngineConfig()),
        server(ServerOptions(dispatch_depth), net::MakeMinidbHandler(&engine)) {
  }

  static minidb::EngineConfig EngineConfig() {
    minidb::EngineConfig config = bench::MysqlMemoryResidentConfig();
    config.warehouses = kWarehouses;
    return config;
  }

  static net::NetServerOptions ServerOptions(size_t dispatch_depth) {
    net::NetServerOptions options;
    options.workers = kWorkers;
    options.max_dispatch_depth = dispatch_depth;
    options.max_connections = 2 * kConnections;
    return options;
  }
};

workload::OpenLoopOptions LoadOptions(uint16_t port, double rate_per_s,
                                      workload::ArrivalProcess process,
                                      double seconds, uint64_t seed) {
  workload::OpenLoopOptions options;
  options.port = port;
  options.connections = kConnections;
  options.duration_s = seconds;
  options.arrivals.process = process;
  options.arrivals.rate_per_sec = rate_per_s;
  options.seed = seed;

  // Deterministic TPC-C-shaped request stream. The generator is stateful;
  // the driver calls make_request in schedule order on one thread, so one
  // Rng per options object is exact.
  auto rng = std::make_shared<statkit::Rng>(seed ^ 0xabcdef);
  auto gen = std::make_shared<workload::TpccGenerator>(workload::TpccOptions{},
                                                       kWarehouses);
  options.make_request = [rng, gen](uint64_t) {
    net::Frame frame;
    frame.type = net::MsgType::kTxn;
    frame.txn = gen->Next(*rng);
    return frame;
  };
  return options;
}

// The top factors of one fully-instrumented traced run.
std::vector<bench::FactorShare> TraceTopFactors(
    const workload::OpenLoopOptions& options) {
  vprof::CallGraph graph;
  minidb::Engine::RegisterCallGraph(&graph);
  net::NetServer::RegisterNetCallGraph(&graph, "run_transaction");
  return bench::OpenLoopTopFactors(bench::TraceOpenLoop(options), graph,
                                   vprof::RegisterFunction(net::kNetRootFunc));
}

bench::LoadPoint MeasurePoint(Harness* harness, double capacity,
                              double utilization,
                              workload::ArrivalProcess process, uint64_t seed) {
  bench::LoadPoint point;
  point.utilization = utilization;
  point.offered_per_s = capacity * utilization;

  bench::MeasureLoad(LoadOptions(harness->server.port(), point.offered_per_s,
                                 process, kMeasureSeconds, seed),
                     &point);
  point.top_factors = TraceTopFactors(LoadOptions(
      harness->server.port(), point.offered_per_s, process, kTraceSeconds,
      seed + 1));
  return point;
}

const char* ShapeName(workload::ArrivalProcess process) {
  return process == workload::ArrivalProcess::kPoisson ? "poisson" : "bursty";
}

bool HasNetFactor(const std::vector<bench::FactorShare>& top) {
  for (const bench::FactorShare& f : top) {
    if (f.name.rfind("net:", 0) == 0) {
      return true;
    }
  }
  return false;
}

void PrintShape(workload::ArrivalProcess process,
                const std::vector<bench::LoadPoint>& points) {
  std::printf("\n  %s arrivals\n", ShapeName(process));
  std::printf("  %5s %10s %10s %8s %8s %8s %9s %9s %9s  %s\n", "util",
              "offered/s", "acked/s", "acked", "rejected", "failed",
              "p50 (ms)", "p99 (ms)", "p999(ms)", "top variance factors");
  for (const bench::LoadPoint& p : points) {
    std::printf("  %5.2f %10.0f %10.0f %8llu %8llu %8llu %9.3f %9.3f %9.3f  %s\n",
                p.utilization, p.offered_per_s, p.run.achieved_per_s,
                static_cast<unsigned long long>(p.run.acked),
                static_cast<unsigned long long>(p.run.rejected),
                static_cast<unsigned long long>(p.run.failed),
                p.latency.p50_ms, p.latency.p99_ms, p.latency.p999_ms,
                bench::FactorList(p.top_factors).c_str());
  }
}

}  // namespace

int main() {
  bench::PrintHeader(
      "netload — open-loop latency vs offered load through the epoll "
      "front-end");
  std::printf("Expected shape: past saturation the dispatch queue dominates\n"
              "and net:queue_wait enters the top-3; bursty arrivals at the\n"
              "same mean rate fatten the tail before mean utilization hits 1.\n");

  Harness harness(kDispatchDepth);
  if (!harness.server.Start()) {
    std::fprintf(stderr, "netload: server failed to start\n");
    return 1;
  }

  // Capacity calibration: saturate the server (unbounded offered load far
  // beyond service rate); the acked rate is the service capacity.
  const workload::OpenLoopResult calibration = workload::RunOpenLoop(
      LoadOptions(harness.server.port(), kCalibrationRate,
                  workload::ArrivalProcess::kPoisson, kCalibrationSeconds,
                  /*seed=*/7));
  if (calibration.connect_failed || calibration.acked == 0) {
    std::fprintf(stderr, "netload: calibration run failed\n");
    return 1;
  }
  const double capacity = calibration.achieved_per_s;
  std::printf("\n  calibration: %llu acked over %d connections -> capacity "
              "~%.0f req/s\n",
              static_cast<unsigned long long>(calibration.acked),
              static_cast<int>(kConnections), capacity);

  const workload::ArrivalProcess shapes[] = {
      workload::ArrivalProcess::kPoisson, workload::ArrivalProcess::kBursty};
  std::vector<std::vector<bench::LoadPoint>> results;
  uint64_t seed = 1000;
  for (const workload::ArrivalProcess process : shapes) {
    std::vector<bench::LoadPoint> points;
    for (const double utilization : kUtilizations) {
      points.push_back(
          MeasurePoint(&harness, capacity, utilization, process, seed));
      seed += 10;
    }
    PrintShape(process, points);
    results.push_back(std::move(points));
  }

  harness.server.Shutdown();

  // Acceptance: a net-side factor in the top-3 at the overload point of at
  // least one shape (both normally qualify).
  const bool net_at_overload = HasNetFactor(results[0].back().top_factors) ||
                               HasNetFactor(results[1].back().top_factors);
  std::printf("\n  acceptance: net-side factor in top-3 at overload: %s\n",
              net_at_overload ? "yes" : "NO");

  bench::Json shapes_json = bench::Json::Object();
  for (size_t s = 0; s < results.size(); ++s) {
    bench::Json points = bench::Json::Array();
    for (const bench::LoadPoint& p : results[s]) {
      points.Push(bench::LoadPointJson(p)
                      .Set("sent", p.run.sent)
                      .Set("in_flight", p.run.in_flight));
    }
    shapes_json.Set(ShapeName(shapes[s]),
                    bench::Json::Object().Set("points", points));
  }
  const bench::Json report =
      bench::Json::Object()
          .Set("benchmark", "netload")
          .Set("connections", kConnections)
          .Set("workers", kWorkers)
          .Set("dispatch_depth", kDispatchDepth)
          .Set("capacity_per_s", bench::Json(capacity, 1))
          .Set("shapes", shapes_json)
          .Set("acceptance", bench::Json::Object().Set(
                                 "net_factor_in_top3_at_overload",
                                 net_at_overload));
  if (!bench::WriteBenchJson("BENCH_net.json", report)) {
    return 1;
  }
  return net_at_overload ? 0 : 1;
}
