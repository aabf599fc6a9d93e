// Event-based static-file web server, the Apache HTTPD stand-in for the
// paper's Section 4.7 case study.
//
// Serve runs one request's path on the calling thread, inside the caller's
// semantic interval: a NetServer worker calls it for each kHttpGet. The
// in-process listener, HandleRequestBlocking, begins the interval at
// submission and hands the request to a vprof::WorkerPool, whose worker
// calls Serve and signals completion. Instrumented hierarchy:
//
//   process_request
//    |- ap_process_request_internal ----- apr_bucket_alloc
//    `- default_handler
//        |- apr_file_open -------------- apr_bucket_alloc
//        |- basic_http_header ---------- apr_bucket_alloc
//        `- ap_pass_brigade (recursive)
//            |- apr_bucket_alloc
//            `- core_output_filter
//   apr_bucket_alloc ------------------- apr_allocator_alloc
#ifndef SRC_HTTPD_SERVER_H_
#define SRC_HTTPD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/httpd/bucket_alloc.h"
#include "src/httpd/filters.h"
#include "src/simio/disk.h"
#include "src/vprof/analysis/call_graph.h"
#include "src/vprof/worker_pool.h"

namespace httpd {

struct HttpdConfig {
  // HandleRequestBlocking's worker pool, started at its first call.
  int workers = 4;

  // The paper's fix: pre-allocate memory in large chunks (Section 4.7).
  bool bulk_allocation = false;

  // Initial global free-list size, in blocks. Small values create the
  // memory-pressure regime the paper observed.
  int global_free_blocks = 48;

  uint64_t file_count = 4;     // distinct static files served
  uint64_t page_bytes = 169;   // the paper's 169-byte static page
  int page_cache_files = 1024; // effectively everything stays cached

  // When > 0, a HandleRequestBlocking submission finding this many requests
  // already queued is rejected with 503 instead of deepening the backlog
  // (load shedding). 0 keeps the historical unbounded queue.
  int max_queue_depth = 0;

  simio::DiskConfig file_disk;

  // Distributed tier hook: invoked by Serve, inside process_request,
  // between request parsing and the handler — where stock httpd would call
  // out to its data tier. dist::BackendPool::Call goes here; the RPC's
  // rpc:call probe then nests under process_request in the variance tree.
  std::function<void(uint64_t file_id)> backend_call;
};

struct HttpdStats {
  uint64_t requests_served = 0;
  uint64_t requests_rejected = 0;  // shed with 503 at submission
  uint64_t system_allocs = 0;
};

// Submission outcome, named after the HTTP status the client would see.
enum class RequestStatus : uint8_t {
  kOk,                  // 200: served by a pool worker
  kServiceUnavailable,  // 503: shed because the pool's queue was full
};

class HttpServer {
 public:
  explicit HttpServer(const HttpdConfig& config);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Runs process_request for `file_id` on the calling thread, inside the
  // caller's semantic interval. Thread-safe.
  void Serve(uint64_t file_id);

  // In-process listener: begins a semantic interval, queues the request for
  // the worker pool, and blocks until a worker has served it — or sheds it
  // with 503 when max_queue_depth requests are queued. Thread-safe.
  RequestStatus HandleRequestBlocking(uint64_t file_id);

  // Drains and joins the pool, if a call started one. Idempotent.
  void Shutdown();

  static void RegisterCallGraph(vprof::CallGraph* graph);

  HttpdStats stats() const;
  const HttpdConfig& config() const { return config_; }
  GlobalFreeList& global_free_list() { return global_list_; }

 private:
  void ProcessRequest(uint64_t file_id, BucketAllocator* allocator);

  HttpdConfig config_;
  simio::Disk file_disk_;
  GlobalFreeList global_list_;
  PageCache page_cache_;
  // Bulk mode's retained allocators, idle between the requests that borrow
  // them: one per request served concurrently, at the peak.
  std::mutex retained_mu_;
  std::vector<std::unique_ptr<BucketAllocator>> retained_;
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> requests_rejected_{0};
  std::once_flag pool_started_;
  std::unique_ptr<vprof::WorkerPool<uint64_t>> pool_;
};

}  // namespace httpd

#endif  // SRC_HTTPD_SERVER_H_
