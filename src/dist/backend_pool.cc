#include "src/dist/backend_pool.h"

#include <mutex>
#include <utility>

#include "src/vprof/probe.h"
#include "src/vprof/registry.h"

namespace dist {

void RegisterDistCallGraph(vprof::CallGraph* graph,
                           std::string_view backend_root) {
  vprof::RegisterFunction(net::kRpcCallFunc);
  vprof::RegisterFunction(kColdStartFunc);
  graph->AddEdge("process_request", net::kRpcCallFunc);
  graph->AddEdge(net::kRpcCallFunc, kColdStartFunc);
  graph->AddEdge(net::kRpcCallFunc, backend_root);
}

BackendPool::BackendPool(const BackendPoolOptions& options)
    : options_(options) {
  vprof::RegisterFunction(kColdStartFunc);
}

BackendPool::~BackendPool() { Shutdown(); }

bool BackendPool::Warm() { return EnsureReady(); }

bool BackendPool::Call(net::Frame request, net::Frame* reply) {
  if (!ready_.load(std::memory_order_acquire)) {
    // The probe opens before the mutex: every caller that piles up behind
    // the spawn blocks *inside* its own dist:cold_start invocation, so the
    // walker's coverage rule charges the wait to the cold start, not to an
    // anonymous blocked residual.
    VPROF_FUNC(kColdStartFunc);
    if (!EnsureReady()) {
      return false;
    }
  }
  return client_->Call(std::move(request), reply);
}

bool BackendPool::EnsureReady() {
  std::lock_guard<vprof::Mutex> lock(spawn_mu_);
  if (ready_.load(std::memory_order_acquire)) {
    return true;
  }
  uint16_t port = options_.port;
  if (port == 0 || options_.cold_start) {
    if (!options_.spawn) {
      return false;
    }
    port = options_.spawn();
    if (port == 0) {
      return false;
    }
    cold_starts_.fetch_add(1, std::memory_order_relaxed);
  }
  net::AsyncClientOptions client_options;
  client_options.port = port;
  client_options.connections = options_.connections;
  client_options.service = options_.service;
  client_options.span_sink = options_.span_sink;
  auto client = std::make_unique<net::AsyncClient>(client_options);
  if (!client->Connect()) {
    return false;
  }
  calibration_ = client->CalibrateClock(options_.calibrate_rounds);
  client_ = std::move(client);
  ready_.store(true, std::memory_order_release);
  return true;
}

void BackendPool::Shutdown() {
  std::lock_guard<vprof::Mutex> lock(spawn_mu_);
  ready_.store(false, std::memory_order_release);
  if (client_) {
    client_->Shutdown();
    client_.reset();
  }
}

net::ClockCalibration BackendPool::calibration() const {
  if (!ready_.load(std::memory_order_acquire)) {
    return net::ClockCalibration{};
  }
  return calibration_;
}

vprof::ThreadId BackendPool::loop_tid() const {
  if (!ready_.load(std::memory_order_acquire)) {
    return vprof::kNoThread;
  }
  return client_->loop_tid();
}

net::AsyncClientStats BackendPool::client_stats() const {
  if (!ready_.load(std::memory_order_acquire)) {
    return net::AsyncClientStats{};
  }
  return client_->stats();
}

}  // namespace dist
