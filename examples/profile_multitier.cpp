// Multi-tier profiling (the paper's Section 5 future-work direction): one
// semantic interval spans an application-server request *and* the database
// transaction it issues. The variance tree crosses both tiers, so the
// profiler can tell whether end-to-end request variance comes from the app
// tier (rendering, queueing) or from inside the database (lock waits,
// log flushes).
//
// Architecture: client threads submit requests to a vprof::WorkerPool and
// wait; app workers dequeue (created-by edge), parse, run a minidb
// transaction (which *joins* the enclosing interval instead of opening its
// own), render, and signal the client.
//
// Build & run:  ./build/examples/profile_multitier
#include <cstdio>
#include <thread>
#include <vector>

#include "src/minidb/engine.h"
#include "src/vprof/analysis/profiler.h"
#include "src/vprof/probe.h"
#include "src/vprof/worker_pool.h"
#include "src/workload/tpcc.h"

namespace {

void ParseRequest() {
  VPROF_FUNC("app_parse");
  volatile uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < 2000; ++i) {
    h = (h ^ static_cast<uint64_t>(i)) * 1099511628211ull;
  }
}

void RenderResponse() {
  VPROF_FUNC("app_render");
  volatile uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < 6000; ++i) {
    h = (h ^ static_cast<uint64_t>(i)) * 1099511628211ull;
  }
}

}  // namespace

int main() {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.warehouses = 2;
  minidb::Engine db(config);
  // The app tier: each request is parsed, run and rendered on a worker.
  vprof::WorkerPool<minidb::TxnRequest> app(
      /*workers=*/4, /*max_depth=*/0,
      [&db](vprof::IntervalId, minidb::TxnRequest& txn) {
        VPROF_FUNC("app_handle_request");
        ParseRequest();
        db.Execute(txn);  // joins the enclosing interval
        RenderResponse();
      });

  // Combined call graph: app tier on top of the database's graph.
  vprof::CallGraph graph;
  graph.AddEdge("app_handle_request", "app_parse");
  graph.AddEdge("app_handle_request", "run_transaction");
  graph.AddEdge("app_handle_request", "app_render");
  minidb::Engine::RegisterCallGraph(&graph);

  workload::TpccOptions options;
  options.threads = 8;
  options.transactions_per_thread = 200;
  const workload::TpccGenerator generator(options, config.warehouses);

  const auto run_workload = [&] {
    std::vector<std::thread> clients;
    for (int c = 0; c < options.threads; ++c) {
      clients.emplace_back([&, c] {
        statkit::Rng rng(77 + static_cast<uint64_t>(c));
        for (int i = 0; i < options.transactions_per_thread; ++i) {
          app.SubmitAndWait(generator.Next(rng));
        }
      });
    }
    for (auto& client : clients) {
      client.join();
    }
  };
  run_workload();  // warm-up

  vprof::Profiler profiler("app_handle_request", &graph, run_workload);
  vprof::ProfileOptions profile_options;
  profile_options.top_k = 5;
  const vprof::ProfileResult result = profiler.Run(profile_options);
  std::printf("%s\n", result.Report().c_str());
  std::printf("The top factors come from *inside the database tier* (commit-\n"
              "path flushing and lock waits) — not from app_parse/app_render —\n"
              "even though the profiled interval is an application-server\n"
              "request crossing a queue hop and two software tiers.\n");
  return 0;
}
