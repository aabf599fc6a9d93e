#include "src/httpd/server.h"

#include "src/vprof/probe.h"
#include "src/vprof/runtime.h"

namespace httpd {

namespace {

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
      page_cache_(config.page_cache_files, &file_disk_) {
  workers_.reserve(static_cast<size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

HttpServer::~HttpServer() { Shutdown(); }

void HttpServer::Shutdown() {
  if (shut_down_.exchange(true)) {
    return;
  }
  queue_.Close();
  for (auto& worker : workers_) {
    worker.join();
  }
}

RequestStatus HttpServer::HandleRequestBlocking(uint64_t file_id) {
  // Join an enclosing semantic interval when one exists — the network
  // front-end anchors the interval at socket readability, and this call
  // (queue hop included) must stay inside it. Standalone callers still get
  // their own interval.
  vprof::IntervalId sid = vprof::CurrentIntervalId();
  const bool owns_interval = sid == vprof::kNoInterval;
  if (owns_interval) {
    sid = vprof::BeginInterval();
  }
  const auto done = std::make_shared<vprof::Event>();
  bool accepted = true;
  if (config_.max_queue_depth > 0) {
    accepted = queue_.PushIfBelow(PendingRequest{sid, file_id, done},
                                  static_cast<size_t>(config_.max_queue_depth));
  } else {
    queue_.Push(PendingRequest{sid, file_id, done});
  }
  if (!accepted) {
    // Shed: answer 503 immediately rather than deepening the backlog. The
    // interval still closes so the profiler sees the (short) rejection.
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (owns_interval) {
      vprof::EndInterval(sid);
    }
    return RequestStatus::kServiceUnavailable;
  }
  done->Wait();
  if (owns_interval) {
    vprof::EndInterval(sid);
  }
  return RequestStatus::kOk;
}

void HttpServer::WorkerLoop() {
  Filter core{Filter::Kind::kCoreOutput, nullptr};
  Filter content_length{Filter::Kind::kContentLength, &core};

  // The paper's fix pre-allocates larger chunks in advance and retains them:
  // in bulk mode the allocator (with its big local cache) lives as long as
  // the worker, so requests rarely touch the global list at all. The
  // baseline mirrors stock APR: the allocator belongs to the connection, so
  // every request starts with an empty local cache and churns the global
  // list — under memory pressure, expensively.
  std::unique_ptr<BucketAllocator> retained;
  if (config_.bulk_allocation) {
    retained = std::make_unique<BucketAllocator>(&global_list_,
                                                 /*bulk=*/true);
  }

  while (auto request = queue_.Pop()) {
    vprof::WorkOnBehalf(request->sid);
    if (retained != nullptr) {
      ProcessRequest(*request, retained.get(), &content_length);
    } else {
      BucketAllocator allocator(&global_list_, /*bulk=*/false);
      ProcessRequest(*request, &allocator, &content_length);
    }
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    request->done->Set();
    vprof::WorkOnBehalf(vprof::kNoInterval);
  }
}

void HttpServer::ProcessRequest(const PendingRequest& request,
                                BucketAllocator* allocator, Filter* chain) {
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
    config_.backend_call(request.file_id);
  }
  {
    VPROF_FUNC("default_handler");
    Brigade brigade(allocator);
    AprFileOpen(request.file_id, config_.page_bytes, &brigade, &page_cache_);
    BasicHttpHeader(&brigade);
    brigade.Append(BucketType::kEos, 0);
    ApPassBrigade(chain, &brigade);
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
