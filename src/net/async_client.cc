#include "src/net/async_client.h"

#include <sys/epoll.h>

#include <utility>

#include "src/vprof/probe.h"
#include "src/vprof/registry.h"

namespace net {

namespace {
std::atomic<uint64_t> g_next_span_id{1};
}  // namespace

uint64_t NextSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

AsyncClient::AsyncClient(const AsyncClientOptions& options)
    : options_(options) {
  vprof::RegisterFunction(kRpcCallFunc);
}

AsyncClient::~AsyncClient() { Shutdown(); }

bool AsyncClient::Connect() {
  if (connected_.load(std::memory_order_acquire)) {
    return true;
  }
  if (!loop_.valid() || options_.connections == 0) {
    return false;
  }
  conns_.clear();
  for (size_t i = 0; i < options_.connections; ++i) {
    Fd fd = ConnectLocal(options_.port, /*nonblocking=*/true);
    if (!fd.valid()) {
      conns_.clear();
      return false;
    }
    conns_.push_back(std::make_unique<FramedConn>(&loop_, std::move(fd)));
  }
  shut_down_.store(false, std::memory_order_release);
  connected_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop_tid_ = vprof::kNoThread;  // re-armed for a reconnect's fresh loop
  }
  loop_thread_ = std::thread([this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      loop_tid_ = vprof::CurrentThread()->tid();
    }
    loop_tid_ready_.notify_all();
    for (size_t i = 0; i < conns_.size(); ++i) {
      conns_[i]->Watch([this, i](uint32_t events) { OnConnEvent(i, events); });
    }
    loop_.Run(/*tick_ms=*/50, {});
  });
  {
    // Tier rosters are built from loop_tid() right after Connect returns, so
    // wait for the loop thread's vprof registration.
    std::unique_lock<std::mutex> lock(mu_);
    loop_tid_ready_.wait(lock,
                         [this] { return loop_tid_ != vprof::kNoThread; });
  }
  return true;
}

void AsyncClient::Shutdown() {
  if (shut_down_.exchange(true)) {
    return;
  }
  connected_.store(false, std::memory_order_release);
  loop_.Stop();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  conns_.clear();
  FailAllPending();
}

vprof::ThreadId AsyncClient::loop_tid() const {
  std::lock_guard<std::mutex> lock(mu_);
  return loop_tid_;
}

AsyncClientStats AsyncClient::stats() const {
  AsyncClientStats out;
  out.calls = calls_.load(std::memory_order_relaxed);
  out.failures = failures_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  return out;
}

bool AsyncClient::Call(Frame request, Frame* reply) {
  // The probe makes the send-side of every RPC an attributable invocation on
  // the caller: the stitched walk lands here for serialize/post time, and
  // dist:cold_start (BackendPool) nests under it.
  VPROF_FUNC(kRpcCallFunc);
  ClientSpanRecord span;
  span.service = options_.service;
  span.span_id = NextSpanId();
  span.interval_id = static_cast<uint64_t>(vprof::CurrentIntervalId());
  span.caller_tid = vprof::CurrentThread()->tid();

  request.has_trace_context = true;
  request.trace_context.interval_id = span.interval_id;
  request.trace_context.span_id = span.span_id;
  request.trace_context.origin_service = ServiceId::kFront;
  span.send_time_ns = vprof::Now();
  request.trace_context.send_time_ns = span.send_time_ns;

  if (!CallInternal(std::move(request), reply)) {
    return false;
  }
  span.recv_time_ns = vprof::Now();
  if (reply->has_server_timing) {
    span.has_server_timing = true;
    span.server = reply->server_timing;
  }
  if (reply->type == MsgType::kRejected) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.span_sink) {
    options_.span_sink(span);
  }
  return true;
}

bool AsyncClient::CallInternal(Frame request, Frame* reply) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (!connected_.load(std::memory_order_acquire)) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const uint64_t rid =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  request.request_id = rid;
  auto pending = std::make_shared<PendingCall>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[rid] = pending;
  }
  std::string bytes;
  EncodeFrame(request, &bytes);
  const size_t conn_index =
      next_conn_.fetch_add(1, std::memory_order_relaxed) % conns_.size();
  loop_.Post([this, conn_index, rid, bytes = std::move(bytes)] {
    if (conn_index >= conns_.size() || !conns_[conn_index]) {
      // The socket died (or shutdown raced the post): fail fast instead of
      // letting the caller ride out the timeout.
      std::shared_ptr<PendingCall> p;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = pending_.find(rid);
        if (it != pending_.end()) {
          p = std::move(it->second);
          pending_.erase(it);
        }
      }
      if (p) {
        p->ok = false;
        p->done.Set();
      }
      return;
    }
    if (conns_[conn_index]->Send(bytes) < 0) {
      KillConn(conn_index);
    }
  });

  // Instrumented wait: the blocked segment records a wake-up edge to the
  // loop thread; the stitcher upgrades the hop to the backend worker.
  if (!pending->done.WaitFor(options_.call_timeout_ns)) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(rid);
    if (!pending->done.IsSet()) {
      failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Completion raced the timeout: the reply is whole (fields are filled
    // before Set, and we hold the map lock the completer released).
  }
  if (!pending->ok) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  *reply = std::move(pending->reply);
  return true;
}

ClockCalibration AsyncClient::CalibrateClock(int rounds) {
  ClockCalibration out;
  for (int i = 0; i < rounds; ++i) {
    Frame probe;
    probe.type = MsgType::kClockSync;
    const vprof::TimeNs t1 = vprof::Now();
    probe.t1_ns = t1;
    Frame reply;
    if (!CallInternal(std::move(probe), &reply) ||
        reply.type != MsgType::kClockSyncReply) {
      continue;
    }
    const vprof::TimeNs t3 = vprof::Now();
    const int64_t rtt = t3 - t1;
    if (rtt < 0) {
      continue;
    }
    if (!out.valid || rtt < out.min_rtt_ns) {
      out.valid = true;
      out.min_rtt_ns = rtt;
      // t2 sits (assumed) mid-flight between t1 and t3 on the backend's
      // clock; the offset maps backend stamps onto this process's axis.
      out.offset_ns = (t1 + rtt / 2) - reply.t2_ns;
    }
    ++out.rounds;
  }
  return out;
}

void AsyncClient::OnConnEvent(size_t conn_index, uint32_t events) {
  FramedConn* conn = conns_[conn_index].get();
  if (conn == nullptr) {
    return;
  }
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 ||
      ((events & EPOLLOUT) != 0 && conn->Flush() < 0)) {
    KillConn(conn_index);
    return;
  }
  if ((events & EPOLLIN) == 0) {
    return;
  }
  const ReadEnd end = conn->Read([this](Frame& frame) {
    // A frame the parser skipped is version skew from a newer server: that
    // call times out.
    if (frame.decode_error == WireError::kOk) {
      CompletePending(std::move(frame));
    }
    return true;
  });
  if (end != ReadEnd::kDrained) {
    KillConn(conn_index);
  }
}

void AsyncClient::CompletePending(Frame reply) {
  std::shared_ptr<PendingCall> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(reply.request_id);
    if (it == pending_.end()) {
      return;  // late reply after a timeout; drop
    }
    pending = std::move(it->second);
    pending_.erase(it);
  }
  pending->ok = reply.type != MsgType::kError;
  pending->reply = std::move(reply);
  pending->done.Set();
}

void AsyncClient::FailAllPending() {
  std::unordered_map<uint64_t, std::shared_ptr<PendingCall>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drained.swap(pending_);
  }
  for (auto& [rid, pending] : drained) {
    pending->ok = false;
    pending->done.Set();
  }
}

void AsyncClient::KillConn(size_t conn_index) {
  if (!conns_[conn_index]) {
    return;
  }
  conns_[conn_index].reset();
  // In-flight calls routed to this socket will fail fast on their post (new
  // sends) or time out (already written). If every socket is gone the pool
  // is useless — flip connected_ so new calls fail immediately.
  bool any_alive = false;
  for (const auto& c : conns_) {
    any_alive = any_alive || c != nullptr;
  }
  if (!any_alive) {
    connected_.store(false, std::memory_order_release);
    FailAllPending();
  }
}

}  // namespace net
