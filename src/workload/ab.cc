#include "src/workload/ab.h"

#include <chrono>
#include <mutex>
#include <thread>

#include "src/statkit/rng.h"

namespace workload {

namespace {

// Distinct static files the clients fetch.
constexpr uint64_t kFileCount = 4;

}  // namespace

AbDriver::AbDriver(httpd::HttpServer* server, const AbOptions& options)
    : server_(server), options_(options) {}

AbResult AbDriver::Run() {
  AbResult result;
  std::mutex result_mu;
  const auto run_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(options_.clients));
  for (int c = 0; c < options_.clients; ++c) {
    clients.emplace_back([&, c] {
      statkit::Rng rng(options_.seed * 7907 + static_cast<uint64_t>(c));
      std::vector<double> local;
      local.reserve(static_cast<size_t>(options_.requests_per_client));
      uint64_t local_rejected = 0;
      for (int i = 0; i < options_.requests_per_client; ++i) {
        const uint64_t file_id = rng.NextBelow(kFileCount);
        const auto t0 = std::chrono::steady_clock::now();
        const httpd::RequestStatus status =
            server_->HandleRequestBlocking(file_id);
        const auto t1 = std::chrono::steady_clock::now();
        if (status == httpd::RequestStatus::kOk) {
          local.push_back(
              std::chrono::duration<double, std::nano>(t1 - t0).count());
        } else {
          ++local_rejected;
        }
      }
      std::lock_guard<std::mutex> lock(result_mu);
      result.latencies_ns.insert(result.latencies_ns.end(), local.begin(),
                                 local.end());
      result.completed += local.size();
      result.rejected += local_rejected;
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  const auto run_end = std::chrono::steady_clock::now();
  result.duration_s = std::chrono::duration<double>(run_end - run_start).count();
  result.requests_per_s =
      result.duration_s > 0.0
          ? static_cast<double>(result.completed) / result.duration_s
          : 0.0;
  return result;
}

}  // namespace workload
