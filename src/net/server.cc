#include "src/net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <chrono>
#include <latch>
#include <utility>

#include "src/fault/failpoint.h"
#include "src/vprof/analysis/call_graph.h"
#include "src/vprof/probe.h"
#include "src/vprof/registry.h"

namespace net {

struct NetServer::AtomicStats {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> accept_errors{0};
  std::atomic<uint64_t> accept_overflow{0};
  std::atomic<uint64_t> closed{0};
  std::atomic<uint64_t> read_eofs{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> recovered_frames{0};
  std::atomic<uint64_t> clock_syncs{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> dispatched{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> replies_sent{0};
  std::atomic<uint64_t> replies_dropped{0};
  std::atomic<uint64_t> slow_peer_evictions{0};
  std::atomic<uint64_t> idle_evictions{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> current_connections{0};
  std::atomic<uint64_t> peak_connections{0};
  std::atomic<uint64_t> peak_dispatch_depth{0};
};

namespace {

void BumpPeak(std::atomic<uint64_t>* peak, uint64_t value) {
  uint64_t seen = peak->load(std::memory_order_relaxed);
  while (value > seen &&
         !peak->compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

Frame ReplyFrame(MsgType type, uint64_t request_id,
                 WireError error = WireError::kOk) {
  Frame reply;
  reply.type = type;
  reply.request_id = request_id;
  reply.error = static_cast<uint8_t>(error);
  return reply;
}

bool IsRequestType(MsgType type) {
  return type == MsgType::kTxn || type == MsgType::kHttpGet ||
         type == MsgType::kPing || type == MsgType::kClockSync;
}

}  // namespace

NetServer::NetServer(const NetServerOptions& options, Handler handler)
    : options_(options),
      handler_(std::move(handler)),
      stats_(std::make_unique<AtomicStats>()) {
  // Make the front-end's names exist in every trace snapshot taken while a
  // NetServer is alive — MaterializeQueueWait and the probe below resolve
  // FuncIds by these names.
  vprof::RegisterFunction(kNetRootFunc);
  vprof::RegisterFunction(kReadableFunc);
  vprof::RegisterFunction(kQueueWaitFactor);
}

NetServer::~NetServer() { Shutdown(); }

void NetServer::RegisterNetCallGraph(vprof::CallGraph* graph,
                                     std::string_view engine_root) {
  // "net:request" is a virtual super-root: it never fires as an invocation
  // (the variance tree's root is synthetic), but parenting the engine root
  // and the net-side factors under it makes the Profiler/vprofd instrument
  // them in iteration 1.
  graph->AddEdge(kNetRootFunc, engine_root);
  graph->AddEdge(kNetRootFunc, kReadableFunc);
  graph->AddEdge(kNetRootFunc, kQueueWaitFactor);
}

bool NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return true;
  }
  if (!loop_.valid()) {
    return false;
  }
  listener_ = ListenLocal(options_.port, &port_);
  if (!listener_.valid()) {
    return false;
  }
  running_.store(true, std::memory_order_release);
  shut_down_.store(false, std::memory_order_release);

  // The pool first: the loop thread submits to it from its first frame.
  pool_ = std::make_unique<vprof::WorkerPool<Task>>(
      options_.workers, options_.max_dispatch_depth,
      [this](vprof::IntervalId sid, Task& task) { RunTask(sid, task); });
  std::latch loop_registered(1);
  loop_thread_ = std::thread([this, &loop_registered] {
    loop_tid_ = vprof::CurrentThread()->tid();
    loop_registered.count_down();
    loop_.Add(listener_.get(), EPOLLIN | EPOLLET,
              [this](uint32_t) { OnListenerReadable(); });
    loop_.Run(options_.sweep_interval_ms, [this] { SweepConnections(); });
  });
  loop_registered.wait();
  return true;
}

void NetServer::Shutdown() {
  if (shut_down_.exchange(true)) {
    return;
  }
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  // 1. Stop accepting. The listener is owned by the loop thread from here.
  loop_.Post([this] {
    if (listener_.valid()) {
      loop_.Del(listener_.get());
      listener_.reset();
    }
  });
  // 2. Drain the dispatch queue: the workers run the remaining tasks, each
  // posting its reply, before they are joined.
  pool_->Shutdown();
  // 3. Best-effort flush of everything the workers posted, then stop. The
  // loop runs one final posted batch after Stop, so the flush is ordered
  // after every reply handoff.
  loop_.Post([this] {
    std::vector<uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) {
      ids.push_back(id);
    }
    for (const uint64_t id : ids) {
      // A flush may erase the connection (write error, closing drain).
      const auto it = conns_.find(id);
      if (it != conns_.end()) {
        OnWritten(it->second.get(), it->second->io.Flush());
      }
    }
  });
  loop_.Stop();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  // 4. Loop thread is gone; tear down connection state on this thread.
  stats_->closed.fetch_add(conns_.size(), std::memory_order_relaxed);
  conns_.clear();
  stats_->current_connections.store(0, std::memory_order_relaxed);
  running_.store(false, std::memory_order_release);
}

NetServerStats NetServer::stats() const {
  NetServerStats out;
  const AtomicStats& s = *stats_;
  out.accepted = s.accepted.load(std::memory_order_relaxed);
  out.accept_errors = s.accept_errors.load(std::memory_order_relaxed);
  out.accept_overflow = s.accept_overflow.load(std::memory_order_relaxed);
  out.closed = s.closed.load(std::memory_order_relaxed);
  out.read_eofs = s.read_eofs.load(std::memory_order_relaxed);
  out.protocol_errors = s.protocol_errors.load(std::memory_order_relaxed);
  out.recovered_frames = s.recovered_frames.load(std::memory_order_relaxed);
  out.clock_syncs = s.clock_syncs.load(std::memory_order_relaxed);
  out.requests = s.requests.load(std::memory_order_relaxed);
  out.dispatched = s.dispatched.load(std::memory_order_relaxed);
  out.rejected = s.rejected.load(std::memory_order_relaxed);
  out.replies_sent = s.replies_sent.load(std::memory_order_relaxed);
  out.replies_dropped = s.replies_dropped.load(std::memory_order_relaxed);
  out.slow_peer_evictions =
      s.slow_peer_evictions.load(std::memory_order_relaxed);
  out.idle_evictions = s.idle_evictions.load(std::memory_order_relaxed);
  out.bytes_in = s.bytes_in.load(std::memory_order_relaxed);
  out.bytes_out = s.bytes_out.load(std::memory_order_relaxed);
  out.current_connections =
      s.current_connections.load(std::memory_order_relaxed);
  out.peak_connections = s.peak_connections.load(std::memory_order_relaxed);
  out.peak_dispatch_depth =
      s.peak_dispatch_depth.load(std::memory_order_relaxed);
  return out;
}

std::vector<vprof::ThreadId> NetServer::ProfiledTids() const {
  if (pool_ == nullptr) {
    return {};  // never started
  }
  std::vector<vprof::ThreadId> tids = {loop_tid_};
  tids.insert(tids.end(), pool_->tids().begin(), pool_->tids().end());
  return tids;
}

int64_t NetServer::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void NetServer::OnListenerReadable() {
  // Edge-triggered: accept until EAGAIN.
  while (true) {
    Fd peer(::accept(listener_.get(), nullptr, nullptr));
    if (!peer.valid()) {
      break;  // EAGAIN/EMFILE/...: wait for the next edge
    }
    if (fault::Triggered("net/accept_error")) {
      stats_->accept_errors.fetch_add(1, std::memory_order_relaxed);
      continue;  // peer closes on scope exit
    }
    if (conns_.size() >= options_.max_connections) {
      stats_->accept_overflow.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (SetNonBlocking(peer.get()) != 0) {
      continue;
    }
    const int one = 1;
    ::setsockopt(peer.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const uint64_t conn_id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(conn_id, &loop_, std::move(peer));
    conn->last_activity_ms = NowMs();
    if (!conn->io.Watch([this, conn_id](uint32_t events) {
          OnConnEvent(conn_id, events);
        })) {
      continue;  // conn (and fd) die here
    }
    conns_.emplace(conn_id, std::move(conn));
    stats_->accepted.fetch_add(1, std::memory_order_relaxed);
    stats_->current_connections.store(conns_.size(),
                                      std::memory_order_relaxed);
    BumpPeak(&stats_->peak_connections, conns_.size());
  }
}

void NetServer::OnConnEvent(uint64_t conn_id, uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;
  }
  Conn* conn = it->second.get();
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConn(conn_id);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    OnWritten(conn, conn->io.Flush());
    if (!conns_.contains(conn_id)) {
      return;  // flush closed it (write error / closing drain)
    }
  }
  if ((events & EPOLLIN) == 0) {
    return;
  }
  // Frames completed before a violation are whole and typed — dispatch
  // them; nothing at or after the violation ever reaches a worker (the
  // parser is poisoned and the connection is about to close).
  size_t bytes_in = 0;
  const ReadEnd end = conn->io.Read(
      [&](Frame& frame) {
        HandleFrame(conn, std::move(frame));
        return conns_.contains(conn_id);  // false: evicted while queueing
      },
      &bytes_in);
  stats_->bytes_in.fetch_add(bytes_in, std::memory_order_relaxed);
  if (end == ReadEnd::kStopped) {
    return;
  }
  if (bytes_in > 0) {
    conn->last_activity_ms = NowMs();
  }
  if (end == ReadEnd::kEof) {
    stats_->read_eofs.fetch_add(1, std::memory_order_relaxed);
  }
  if (end == ReadEnd::kEof || end == ReadEnd::kError) {
    CloseConn(conn_id);
  } else if (end == ReadEnd::kBadStream) {
    stats_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    conn->closing = true;  // flush the error frame, then close
    QueueReply(conn, ReplyFrame(MsgType::kError, 0, conn->io.parser().error()));
  }
}

void NetServer::HandleFrame(Conn* conn, Frame frame) {
  if (frame.decode_error != WireError::kOk) {
    // The parser skipped an unintelligible frame whose framing was sound
    // (unknown type / malformed extension — version skew, not corruption).
    // Answer a typed error and keep the connection: an old client must
    // survive a newer peer's frames on the same stream.
    stats_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    stats_->recovered_frames.fetch_add(1, std::memory_order_relaxed);
    QueueReply(conn, ReplyFrame(MsgType::kError, frame.request_id,
                                frame.decode_error));
    return;
  }
  if (!IsRequestType(frame.type)) {
    // A reply type sent to the server is a protocol violation even though
    // the frame itself decodes.
    stats_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    conn->closing = true;
    QueueReply(conn, ReplyFrame(MsgType::kError, frame.request_id,
                                WireError::kBadType));
    return;
  }
  stats_->requests.fetch_add(1, std::memory_order_relaxed);

  if (frame.type == MsgType::kPing) {
    // Liveness probe: answered inline on the loop thread, no interval.
    QueueReply(conn, ReplyFrame(MsgType::kPong, frame.request_id));
    return;
  }
  if (frame.type == MsgType::kClockSync) {
    // Calibration probe: stamped and answered inline on the loop thread so
    // the exchange measures wire + epoll latency, never queueing — the
    // NTP-style offset estimate below it (AsyncClient::CalibrateClock)
    // assumes the server stamp sits mid-flight.
    stats_->clock_syncs.fetch_add(1, std::memory_order_relaxed);
    Frame reply = ReplyFrame(MsgType::kClockSyncReply, frame.request_id);
    reply.t1_ns = frame.t1_ns;
    reply.t2_ns = vprof::Now();
    QueueReply(conn, reply);
    return;
  }

  // The semantic interval is anchored here: it begins the moment a complete
  // request frame is readable on the event-loop thread (paper Section 3.1).
  // Labels follow the minidb convention (txn type + 1; 0 = untyped).
  const vprof::IntervalLabel label =
      frame.type == MsgType::kTxn
          ? static_cast<vprof::IntervalLabel>(frame.txn.type) + 1
          : vprof::kNoLabel;
  const vprof::IntervalId sid = vprof::BeginInterval(label);
  const uint64_t request_id = frame.request_id;
  bool queued = false;
  {
    // "net:readable" covers parse + dispatch on the loop thread; the walker
    // lands in this invocation after the generator-edge jump from the
    // worker, so epoll-side time is attributable by name.
    VPROF_FUNC(kReadableFunc);
    Task task;
    task.conn_id = conn->id;
    if (frame.has_trace_context) {
      // Distributed request: remember when it became readable and on which
      // loop thread, so the worker can stamp the reply's server-timing
      // extension and emit the span record the stitcher joins on.
      task.recv_time_ns = vprof::Now();
      task.loop_tid = vprof::CurrentThread()->tid();
    }
    task.request = std::move(frame);
    queued = pool_->Submit(sid, std::move(task));
  }
  if (queued) {
    stats_->dispatched.fetch_add(1, std::memory_order_relaxed);
    BumpPeak(&stats_->peak_dispatch_depth, pool_->depth());
    // The loop thread goes back to background work; the interval lives on
    // and is picked up, and ended, by whichever worker dequeues the task.
    vprof::WorkOnBehalf(vprof::kNoInterval);
  } else {
    // Shed at the dispatch queue: immediate 503 from the loop thread, and
    // the interval ends here — rejected requests are real, short intervals,
    // which is exactly how overload shows up in the latency distribution.
    stats_->rejected.fetch_add(1, std::memory_order_relaxed);
    vprof::EndInterval(sid);
    QueueReply(conn, ReplyFrame(MsgType::kRejected, request_id));
  }
}

void NetServer::RunTask(vprof::IntervalId sid, Task& task) {
  Frame reply = handler_(task.request);
  reply.request_id = task.request.request_id;
  if (task.request.has_trace_context) {
    // Stamp the backend's half of the span on the reply and hand the full
    // record to the dist layer. reply_time is taken before the encode so
    // it brackets exactly the handler's work.
    const vprof::TimeNs reply_time = vprof::Now();
    const TraceContext& ctx = task.request.trace_context;
    reply.has_server_timing = true;
    reply.server_timing.span_id = ctx.span_id;
    reply.server_timing.recv_time_ns = task.recv_time_ns;
    reply.server_timing.reply_time_ns = reply_time;
    reply.server_timing.worker_tid =
        static_cast<int32_t>(vprof::CurrentThread()->tid());
    if (options_.span_sink) {
      ServerSpanRecord span;
      span.origin_service = ctx.origin_service;
      span.origin_interval_id = ctx.interval_id;
      span.span_id = ctx.span_id;
      span.local_sid = sid;
      span.recv_time_ns = task.recv_time_ns;
      span.reply_time_ns = reply_time;
      span.loop_tid = task.loop_tid;
      span.worker_tid = vprof::CurrentThread()->tid();
      options_.span_sink(span);
    }
  }
  std::string bytes;
  EncodeFrame(reply, &bytes);
  // Once the reply buffer is handed off, the response lifecycle on this
  // request's critical path is done from the worker's point of view: the
  // pool ends the interval when this returns.
  loop_.Post([this, conn_id = task.conn_id, bytes = std::move(bytes)] {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) {
      stats_->replies_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    stats_->replies_sent.fetch_add(1, std::memory_order_relaxed);
    QueueBytes(it->second.get(), bytes);
  });
}

void NetServer::QueueBytes(Conn* conn, const std::string& bytes) {
  if (conn->io.pending_bytes() + bytes.size() > options_.write_buffer_cap) {
    // Slow peer: it stopped draining and its backlog would otherwise grow
    // without bound. Evict — drop the buffered replies and the socket.
    stats_->slow_peer_evictions.fetch_add(1, std::memory_order_relaxed);
    CloseConn(conn->id);
    return;
  }
  OnWritten(conn, conn->io.Send(bytes));
}

void NetServer::QueueReply(Conn* conn, const Frame& reply) {
  std::string bytes;
  EncodeFrame(reply, &bytes);
  QueueBytes(conn, bytes);
}

void NetServer::OnWritten(Conn* conn, ssize_t written) {
  if (written < 0) {
    CloseConn(conn->id);  // EPIPE/ECONNRESET/...
    return;
  }
  stats_->bytes_out.fetch_add(static_cast<uint64_t>(written),
                              std::memory_order_relaxed);
  if (conn->closing && conn->io.pending_bytes() == 0) {
    CloseConn(conn->id);
  }
}

void NetServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;
  }
  conns_.erase(it);  // FramedConn deregisters and closes the socket
  stats_->closed.fetch_add(1, std::memory_order_relaxed);
  stats_->current_connections.store(conns_.size(), std::memory_order_relaxed);
}

void NetServer::SweepConnections() {
  if (options_.idle_timeout_ms <= 0) {
    return;
  }
  const int64_t now = NowMs();
  std::vector<uint64_t> stale;
  for (const auto& [id, conn] : conns_) {
    if (now - conn->last_activity_ms > options_.idle_timeout_ms) {
      stale.push_back(id);
    }
  }
  for (const uint64_t id : stale) {
    stats_->idle_evictions.fetch_add(1, std::memory_order_relaxed);
    CloseConn(id);
  }
}

}  // namespace net
