// The two-tier stack in one process, shared by bench/distload and
// integration_dist_variance_test: httpd, behind the front NetServer, serves
// each kHttpGet on the front worker and calls minidb, behind a second
// NetServer, through dist::BackendPool. Both tiers share the process, so
// Stitch carves one trace into the per-tier shape separate processes would
// produce (by the backend server's thread roster) and dist::StitchTraces
// merges them back into a single trace whose critical paths cross the wire
// twice per request. Each caller sets its own worker counts, dispatch depth,
// connection counts, seed and failure handling.
#ifndef BENCH_TWO_TIER_H_
#define BENCH_TWO_TIER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/dist/backend_pool.h"
#include "src/dist/stitcher.h"
#include "src/dist/tier.h"
#include "src/httpd/server.h"
#include "src/minidb/engine.h"
#include "src/net/frontend.h"
#include "src/net/server.h"
#include "src/statkit/rng.h"
#include "src/workload/openloop.h"
#include "src/workload/tpcc.h"

namespace bench {

inline constexpr int kTwoTierWarehouses = 1;  // Payment serializes on it
inline constexpr int kColdSpawnDelayMs = 60;

struct TwoTierOptions {
  int front_workers = 2;
  int backend_workers = 2;
  size_t dispatch_depth = 16;      // the front NetServer's shedding depth
  size_t load_connections = 96;    // Load's open-loop connections
  uint64_t seed = 0;               // the TPC-C generator behind each GET
  // Defers the backend (engine + NetServer + connect + calibrate) to the
  // first request through the pool: BackendPool's cold-start mode.
  bool cold_start = false;
};

struct TwoTierStack {
  explicit TwoTierStack(const TwoTierOptions& opts)
      : options(opts), rng(opts.seed) {
    minidb::Engine::RegisterCallGraph(&graph);
    httpd::HttpServer::RegisterCallGraph(&graph);
    net::NetServer::RegisterNetCallGraph(&graph, "process_request");
    net::NetServer::RegisterNetCallGraph(&graph, "run_transaction");
    dist::RegisterDistCallGraph(&graph, "run_transaction");
    net_root = vprof::RegisterFunction(net::kNetRootFunc);

    dist::BackendPoolOptions popt;
    popt.service = net::ServiceId::kMinidb;
    popt.connections = 2;
    popt.calibrate_rounds = 8;
    popt.span_sink = spans.ClientSink();
    popt.cold_start = options.cold_start;
    if (options.cold_start) {
      popt.spawn = [this] { return SpawnBackend(); };
    } else {
      popt.port = SpawnBackend();
    }
    pool = std::make_unique<dist::BackendPool>(popt);
    const bool warm = options.cold_start || pool->Warm();

    httpd::HttpdConfig hconf;
    hconf.backend_call = [this](uint64_t) {
      net::Frame req;
      req.type = net::MsgType::kTxn;
      {
        std::lock_guard<std::mutex> lock(gen_mu);
        req.txn = gen.Next(rng);
      }
      net::Frame reply;
      (void)pool->Call(std::move(req), &reply);
    };
    http = std::make_unique<httpd::HttpServer>(hconf);

    net::NetServerOptions fopt;
    fopt.workers = options.front_workers;
    fopt.max_dispatch_depth = options.dispatch_depth;
    front = std::make_unique<net::NetServer>(fopt,
                                             net::MakeHttpdHandler(http.get()));
    ready = warm && front->Start();
  }

  ~TwoTierStack() {
    front->Shutdown();
    pool->Shutdown();
    if (backend != nullptr) {
      backend->Shutdown();
    }
  }

  uint16_t SpawnBackend() {
    if (options.cold_start) {
      // Stand-in for the spawned process's exec + init cost.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kColdSpawnDelayMs));
    }
    minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
    config.warehouses = kTwoTierWarehouses;
    engine = std::make_unique<minidb::Engine>(config);
    net::NetServerOptions bopt;
    bopt.workers = options.backend_workers;
    bopt.span_sink = spans.ServerSink();
    backend = std::make_unique<net::NetServer>(
        bopt, net::MakeMinidbHandler(engine.get()));
    return backend->Start() ? backend->port() : 0;
  }

  // Poisson open-loop kHttpGet load on the front tier, over four files.
  workload::OpenLoopOptions Load(double rate_per_s, double seconds,
                                 uint64_t seed) const {
    workload::OpenLoopOptions load;
    load.port = front->port();
    load.connections = options.load_connections;
    load.duration_s = seconds;
    load.arrivals.process = workload::ArrivalProcess::kPoisson;
    load.arrivals.rate_per_sec = rate_per_s;
    load.seed = seed;
    load.make_request = [](uint64_t i) {
      net::Frame frame;
      frame.type = net::MsgType::kHttpGet;
      frame.file_id = i % 4;
      return frame;
    };
    return load;
  }

  // Splits `trace` into the two tiers (everything not on the backend
  // server's threads is front-tier: the front NetServer, the RPC client's
  // loop, the load generator), hands the split to `tiers_out` when set, and
  // stitches the tiers on their span ids.
  dist::StitchResult Stitch(const vprof::Trace& trace,
                            std::vector<vprof::Trace>* tiers_out = nullptr) {
    const std::vector<vprof::Trace> tiers = dist::SplitByTids(
        trace, {{}, backend->ProfiledTids()}, /*default_index=*/0);
    dist::TierTrace front_tier;
    front_tier.name = "front";
    front_tier.service = net::ServiceId::kFront;
    front_tier.trace = tiers[0];
    front_tier.client_spans = spans.ClientSpans();
    dist::TierTrace backend_tier;
    backend_tier.name = "minidb";
    backend_tier.service = net::ServiceId::kMinidb;
    backend_tier.trace = tiers[1];
    backend_tier.server_spans = spans.ServerSpans();
    backend_tier.clock_offset_ns = pool->calibration().offset_ns;
    spans.Clear();
    if (tiers_out != nullptr) {
      *tiers_out = tiers;
    }
    return dist::StitchTraces(front_tier, {backend_tier});
  }

  const TwoTierOptions options;
  vprof::CallGraph graph;
  vprof::FuncId net_root = vprof::kInvalidFunc;
  dist::SpanLog spans;
  std::unique_ptr<minidb::Engine> engine;
  std::unique_ptr<net::NetServer> backend;
  std::unique_ptr<dist::BackendPool> pool;
  std::unique_ptr<httpd::HttpServer> http;
  std::unique_ptr<net::NetServer> front;
  // False when the backend pool could not warm up or the front server could
  // not start.
  bool ready = false;

  std::mutex gen_mu;
  statkit::Rng rng;
  workload::TpccGenerator gen{workload::TpccOptions{}, kTwoTierWarehouses};
};

// Backend engine factors: lock waits and the WAL path.
inline bool IsBackendFactor(const std::string& name) {
  return name == "lock_rec_lock" || name == "os_event_wait" ||
         name == "log_write_up_to" || name == "fil_flush" ||
         name == "trx_commit" || name == "run_transaction";
}

// Front-tier factors: the net layer, httpd's request path and allocator
// chain, and the RPC client.
inline bool IsFrontFactor(const std::string& name) {
  return name.rfind("net:", 0) == 0 || name.rfind("apr_", 0) == 0 ||
         name.rfind("ap_", 0) == 0 || name.rfind("rpc:", 0) == 0 ||
         name == "process_request" || name == "default_handler";
}

}  // namespace bench

#endif  // BENCH_TWO_TIER_H_
