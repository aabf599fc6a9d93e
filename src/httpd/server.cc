#include "src/httpd/server.h"

#include "src/vprof/probe.h"
#include "src/vprof/runtime.h"

namespace httpd {

namespace {

// The paper's 169-byte static page.
constexpr uint64_t kPageBytes = 169;

void ByteWork(uint64_t bytes) {
  volatile uint64_t h = 14695981039346656037ull;
  for (uint64_t i = 0; i < bytes; ++i) {
    h = (h ^ i) * 1099511628211ull;
  }
}

}  // namespace

HttpServer::HttpServer(const HttpdConfig& config)
    : config_(config),
      file_disk_(config.file_disk),
      global_list_(config.global_free_blocks, config.bulk_allocation),
      page_cache_(config.page_cache_files, &file_disk_) {}

HttpServer::~HttpServer() { Shutdown(); }

void HttpServer::Shutdown() {
  // A HandleRequestBlocking after this starts no pool; it sheds.
  std::call_once(pool_started_, [] {});
  if (pool_ != nullptr) {
    pool_->Shutdown();
  }
}

RequestStatus HttpServer::HandleRequestBlocking(uint64_t file_id) {
  std::call_once(pool_started_, [this] {
    pool_ = std::make_unique<vprof::WorkerPool<uint64_t>>(
        config_.workers, static_cast<size_t>(config_.max_queue_depth),
        [this](vprof::IntervalId, uint64_t& id) { Serve(id); });
  });
  if (pool_ != nullptr && pool_->SubmitAndWait(file_id)) {
    return RequestStatus::kOk;
  }
  requests_rejected_.fetch_add(1, std::memory_order_relaxed);
  return RequestStatus::kServiceUnavailable;
}

void HttpServer::Serve(uint64_t file_id) {
  // The paper's fix pre-allocates larger chunks in advance and retains them:
  // in bulk mode a request borrows an allocator (with its big local cache)
  // that outlives it, so requests rarely touch the global list at all. The
  // baseline mirrors stock APR: the allocator belongs to the connection, so
  // every request starts with an empty local cache and churns the global
  // list — under memory pressure, expensively.
  if (!config_.bulk_allocation) {
    BucketAllocator allocator(&global_list_, /*bulk=*/false);
    ProcessRequest(file_id, &allocator);
  } else {
    std::unique_ptr<BucketAllocator> allocator;
    {
      std::lock_guard<std::mutex> lock(retained_mu_);
      if (!retained_.empty()) {
        allocator = std::move(retained_.back());
        retained_.pop_back();
      }
    }
    if (allocator == nullptr) {
      allocator = std::make_unique<BucketAllocator>(&global_list_,
                                                    /*bulk=*/true);
    }
    ProcessRequest(file_id, allocator.get());
    std::lock_guard<std::mutex> lock(retained_mu_);
    retained_.push_back(std::move(allocator));
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

void HttpServer::ProcessRequest(uint64_t file_id, BucketAllocator* allocator) {
  VPROF_FUNC("process_request");
  {
    // Request parsing, URI walk, per-request pool setup.
    VPROF_FUNC("ap_process_request_internal");
    allocator->Alloc();
    ByteWork(256);
    allocator->Free();
  }
  if (config_.backend_call) {
    // The data-tier RPC: runs between parsing and the handler, still under
    // process_request, on the originating interval.
    config_.backend_call(file_id);
  }
  {
    VPROF_FUNC("default_handler");
    Brigade brigade(allocator);
    AprFileOpen(file_id, kPageBytes, &brigade, &page_cache_);
    BasicHttpHeader(&brigade);
    brigade.Append(BucketType::kEos, 0);
    Filter core{Filter::Kind::kCoreOutput, nullptr};
    Filter content_length{Filter::Kind::kContentLength, &core};
    ApPassBrigade(&content_length, &brigade);
  }
}

HttpdStats HttpServer::stats() const {
  HttpdStats stats;
  stats.requests_served = requests_served_.load(std::memory_order_relaxed);
  stats.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  stats.system_allocs = global_list_.system_allocs();
  return stats;
}

void HttpServer::RegisterCallGraph(vprof::CallGraph* graph) {
  graph->AddEdge("process_request", "ap_process_request_internal");
  graph->AddEdge("process_request", "default_handler");
  graph->AddEdge("ap_process_request_internal", "apr_bucket_alloc");
  graph->AddEdge("default_handler", "apr_file_open");
  graph->AddEdge("default_handler", "basic_http_header");
  graph->AddEdge("default_handler", "ap_pass_brigade");
  graph->AddEdge("apr_file_open", "apr_bucket_alloc");
  graph->AddEdge("basic_http_header", "apr_bucket_alloc");
  graph->AddEdge("ap_pass_brigade", "ap_pass_brigade");
  graph->AddEdge("ap_pass_brigade", "apr_bucket_alloc");
  graph->AddEdge("ap_pass_brigade", "core_output_filter");
  graph->AddEdge("apr_bucket_alloc", "apr_allocator_alloc");
}

}  // namespace httpd
