// BackendPool: the front tier's handle on one backend service.
//
// Owns a net::AsyncClient to a minidb/minipg NetServer, the clock
// calibration for that backend, and — in cold-start mode — the on-demand
// spawn of the backend itself. The serverless-variance angle (PAPERS.md):
// when the backend is spawned lazily, the first requests pay its
// construction cost, and that cost must be *rankable*, not invisible. Every
// caller that arrives before the backend is up opens a "dist:cold_start"
// probe invocation and then blocks on the instrumented spawn mutex, so the
// critical-path walker attributes the entire wait to dist:cold_start by
// coverage — the factor competes in the same Eq. 2 decomposition as lock
// waits and queue waits.
#ifndef SRC_DIST_BACKEND_POOL_H_
#define SRC_DIST_BACKEND_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "src/net/async_client.h"
#include "src/vprof/analysis/call_graph.h"
#include "src/vprof/sync.h"

namespace dist {

// Probe wrapping the on-demand backend spawn (and every waiter behind it).
inline constexpr char kColdStartFunc[] = "dist:cold_start";
// Virtual root of the merged cross-tier variance tree (DistMonitor).
inline constexpr char kDistRootFunc[] = "dist:request";

// Call-graph edges of the dist layer: httpd's request handler issues RPCs
// (process_request -> rpc:call), an RPC may pay a cold start, and it
// conceptually invokes the backend's interval root — which is how backend
// factors (lock/WAL/fil_flush under run_transaction) get graph heights for
// specificity ranking in the merged decomposition. Call after the engine's
// and httpd's RegisterCallGraph.
void RegisterDistCallGraph(vprof::CallGraph* graph,
                           std::string_view backend_root);

struct BackendPoolOptions {
  net::ServiceId service = net::ServiceId::kMinidb;
  size_t connections = 2;
  int calibrate_rounds = 16;

  // Warm mode: the backend is already listening here.
  uint16_t port = 0;

  // Cold-start mode: the backend does not exist until the first Call. spawn
  // brings it up (constructing the engine + NetServer counts as the cold
  // start) and returns its port, or 0 on failure.
  bool cold_start = false;
  std::function<uint16_t()> spawn;

  std::function<void(const net::ClientSpanRecord&)> span_sink;
};

class BackendPool {
 public:
  explicit BackendPool(const BackendPoolOptions& options);
  ~BackendPool();

  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  // Connects (and calibrates) immediately. In cold-start mode this is the
  // spawn; call it from setup code only when cold cost should *not* be
  // measured.
  bool Warm();

  // Issues one RPC, paying the cold start first if the backend is not up.
  bool Call(net::Frame request, net::Frame* reply);

  void Shutdown();

  bool ready() const { return ready_.load(std::memory_order_acquire); }
  // Valid once ready(): written before the ready flip, ordered by it.
  net::ClockCalibration calibration() const;
  vprof::ThreadId loop_tid() const;
  uint64_t cold_starts() const {
    return cold_starts_.load(std::memory_order_relaxed);
  }
  net::AsyncClientStats client_stats() const;

 private:
  bool EnsureReady();

  BackendPoolOptions options_;
  vprof::Mutex spawn_mu_;  // instrumented: waiters' blocks are attributable
  std::unique_ptr<net::AsyncClient> client_;
  net::ClockCalibration calibration_;
  std::atomic<bool> ready_{false};
  std::atomic<uint64_t> cold_starts_{0};
};

}  // namespace dist

#endif  // SRC_DIST_BACKEND_POOL_H_
