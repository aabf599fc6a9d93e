// NetServer: the epoll front-end that puts a real wire boundary in front of
// the engines (ROADMAP item 1).
//
// One event-loop thread owns the listener and every connection: non-blocking
// accept, then one FramedConn (conn.h) per peer for the edge-triggered reads
// into a bounded FrameParser and the writes out of an outbox this server
// caps. Parsed requests are dispatched to a vprof::WorkerPool; its bounded
// queue sheds on the accept path — when the dispatch queue is at
// max_dispatch_depth the loop answers kRejected (a 503) immediately instead
// of deepening the backlog.
//
// Semantic-interval anchoring (the reason this layer exists, paper
// Section 3.1): the interval begins on the event-loop thread the moment a
// complete request frame becomes readable — the "net:readable" probe wraps
// parse + dispatch — and ends on the thread that hands the reply buffer back
// to the connection: the worker, or, when the handler took the reply over
// (TakeResponder), whichever thread sends it. The pool queue's created-by
// edge lets the critical-path walker jump from the worker back through the
// dispatch queue into the epoll wakeup, and the enqueue-to-dequeue gap
// surfaces as the "net:queue_wait" variance factor
// (CriticalPathOptions::queue_wait_factor).
//
// Deferred replies: a handler may take over the reply of the request it is
// handling (NetServer::TakeResponder) and return at once, freeing the
// worker; any thread sends it later through the same routine that sends
// the replies handlers return. Shutdown waits until every taken reply has
// been sent or dropped.
//
// Robustness: per-connection state machines are bounded in every dimension —
// frame size (protocol.h), outbox bytes (slow-peer eviction), connection
// count, idle time — and the socket layer evaluates the net/* failpoints so
// chaos storms reach the accept/read/write paths deterministically.
#ifndef SRC_NET_SERVER_H_
#define SRC_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/conn.h"
#include "src/net/event_loop.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/vprof/runtime.h"
#include "src/vprof/worker_pool.h"

namespace net {

// Probe-site / factor names the analysis layers key on.
inline constexpr char kNetRootFunc[] = "net:request";
inline constexpr char kReadableFunc[] = "net:readable";
inline constexpr char kQueueWaitFactor[] = "net:queue_wait";

// One backend-side span: everything dist::TraceStitcher needs to splice this
// server's work for one RPC into the originating tier's interval. Recorded
// on the thread that sends the reply, right before the reply is posted.
struct ServerSpanRecord {
  ServiceId origin_service = ServiceId::kUnknown;
  uint64_t origin_interval_id = 0;  // the front tier's vprof sid
  uint64_t span_id = 0;             // unique per RPC within the origin
  vprof::IntervalId local_sid = vprof::kNoInterval;  // this process's interval
  vprof::TimeNs recv_time_ns = 0;   // local fastclock at frame dispatch
  vprof::TimeNs reply_time_ns = 0;  // local fastclock when the reply was built
  vprof::ThreadId loop_tid = vprof::kNoThread;
  vprof::ThreadId worker_tid = vprof::kNoThread;  // the thread that replied
};

struct NetServerOptions {
  uint16_t port = 0;  // 0 = ephemeral; NetServer::port() reports the bound one
  int workers = 2;

  // Dispatch-queue depth at which requests are shed with kRejected
  // (httpd-style 503). 0 = unbounded.
  size_t max_dispatch_depth = 0;

  // Connections beyond this are accepted and immediately closed.
  size_t max_connections = 8192;

  // A connection whose pending outbox exceeds this many bytes is evicted
  // (slow peer): its responses are dropped and the socket closed, so one
  // non-draining client cannot pin server memory or stall the loop.
  size_t write_buffer_cap = 256 * 1024;

  // Idle eviction: connections with no readable activity for this long are
  // closed on the sweep tick. 0 disables.
  int64_t idle_timeout_ms = 0;
  int sweep_interval_ms = 50;

  // Distributed-profiling hook: when set, every request carrying a
  // trace-context extension gets (a) a server-timing extension on its reply
  // and (b) a ServerSpanRecord delivered here from the thread that sends
  // the reply. Must be thread-safe; keep it cheap (it sits between the
  // handler and the reply post).
  std::function<void(const ServerSpanRecord&)> span_sink;
};

// Relaxed counters; Snapshot() gives a consistent-enough copy for tests.
struct NetServerStats {
  uint64_t accepted = 0;          // connections admitted to the loop
  uint64_t accept_errors = 0;     // net/accept_error firings
  uint64_t accept_overflow = 0;   // closed at max_connections
  uint64_t closed = 0;            // connections torn down (any reason)
  uint64_t read_eofs = 0;         // peer (or injected) EOF
  uint64_t protocol_errors = 0;   // FrameParser violations
  uint64_t recovered_frames = 0;  // skipped frames answered with typed kError
  uint64_t clock_syncs = 0;       // calibration probes answered inline
  uint64_t requests = 0;          // complete request frames parsed
  uint64_t dispatched = 0;        // handed to the worker pool
  uint64_t rejected = 0;          // shed at the dispatch queue
  uint64_t replies_sent = 0;      // reply frames fully written to a socket
  uint64_t replies_dropped = 0;   // reply's connection was already gone, or
                                  // a taken reply was never sent
  uint64_t slow_peer_evictions = 0;
  uint64_t idle_evictions = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t current_connections = 0;
  uint64_t peak_connections = 0;
  uint64_t peak_dispatch_depth = 0;
};

class Responder;

class NetServer {
 public:
  // Executed on a worker thread; returns the reply frame (request_id is
  // overwritten with the request's id by the server), which is ignored when
  // the handler took the reply over with TakeResponder.
  using Handler = std::function<Frame(const Frame& request)>;

  NetServer(const NetServerOptions& options, Handler handler);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, spawns the loop and worker threads. False when the listener or
  // epoll could not be created (port in use, fd exhaustion).
  bool Start();

  // Stops accepting, drains the dispatch queue through the workers,
  // best-effort flushes pending replies, closes every connection and joins
  // all threads. Idempotent.
  void Shutdown();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  NetServerStats stats() const;

  // vprof tids of the loop thread, then every worker. dist::SplitByTids
  // uses this roster to assign this server's threads to its tier when the
  // two tiers share a process; each tid is stable for the life of the OS
  // thread. Complete once Start() has returned true; empty before, or
  // after a Start() that failed.
  std::vector<vprof::ThreadId> ProfiledTids() const;

  // Registers the front-end's probe/factor names plus the virtual
  // "net:request" super-root whose children are the engine's own interval
  // root and the net-side factors — the shape both the offline Profiler and
  // vprofd instrument first. Call after the engine's RegisterCallGraph.
  static void RegisterNetCallGraph(vprof::CallGraph* graph,
                                   std::string_view engine_root);

  // Called from a handler: takes over the reply of the request the calling
  // worker is handling. The handler's returned frame is then ignored and
  // the request's interval stays open until the responder is sent or
  // dropped. An empty responder outside a handler, or when already taken.
  static Responder TakeResponder();

 private:
  friend class Responder;

  // Where a reply goes, and its request's tracing bookkeeping.
  struct ReplyRoute {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    bool has_trace_context = false;
    TraceContext trace_context;
    vprof::TimeNs recv_time_ns = 0;
    vprof::ThreadId loop_tid = vprof::kNoThread;
    vprof::IntervalId sid = vprof::kNoInterval;
    vprof::HandOff handoff;  // where a handler took the reply over
  };

  // The request whose handler the calling worker runs, for TakeResponder.
  struct Running {
    NetServer* server = nullptr;
    ReplyRoute route;
    bool taken = false;
  };
  static thread_local Running* current_;

  struct Conn {
    Conn(uint64_t conn_id, EventLoop* loop, Fd fd)
        : id(conn_id), io(loop, std::move(fd)) {}
    uint64_t id;
    FramedConn io;
    bool closing = false;  // flush outbox, then close (protocol error path)
    int64_t last_activity_ms = 0;
  };

  struct Task {
    uint64_t conn_id = 0;
    Frame request;
    // Distributed request bookkeeping (request carried a trace context).
    vprof::TimeNs recv_time_ns = 0;
    vprof::ThreadId loop_tid = vprof::kNoThread;
  };

  // --- loop-thread only ---------------------------------------------------
  void OnListenerReadable();
  void OnConnEvent(uint64_t conn_id, uint32_t events);
  void HandleFrame(Conn* conn, Frame frame);
  void QueueBytes(Conn* conn, const std::string& bytes);
  void QueueReply(Conn* conn, const Frame& reply);
  // Accounts a Send/Flush result: closes on a failed write, or once a
  // closing connection has drained.
  void OnWritten(Conn* conn, ssize_t written);
  void CloseConn(uint64_t conn_id);
  void SweepConnections();
  int64_t NowMs() const;

  // --- worker threads -----------------------------------------------------
  // Runs the handler for the pool and sends its reply, unless the handler
  // took the reply over.
  void RunTask(vprof::IntervalId sid, Task& task);

  // --- any thread ---------------------------------------------------------
  // The one send routine of every reply a handler produced, now or later:
  // stamps the server-timing extension and the span record from the
  // calling thread, posts the encoded reply to the loop thread, and ends
  // the request's interval on the calling thread.
  void SendReply(const ReplyRoute& route, Frame reply);
  // A responder was sent or dropped.
  void ReleaseResponder();

  NetServerOptions options_;
  Handler handler_;

  EventLoop loop_;
  Fd listener_;
  uint16_t port_ = 0;

  std::thread loop_thread_;
  vprof::ThreadId loop_tid_ = vprof::kNoThread;
  std::unique_ptr<vprof::WorkerPool<Task>> pool_;

  uint64_t next_conn_id_ = 1;  // loop-thread only
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;

  std::atomic<bool> running_{false};
  std::atomic<bool> shut_down_{false};

  // Taken replies not yet sent or dropped; Shutdown waits for zero.
  std::mutex responders_mu_;
  std::condition_variable responders_cv_;
  size_t responders_ = 0;

  struct AtomicStats;
  std::unique_ptr<AtomicStats> stats_;
};

// The reply to one request, taken over by its handler
// (NetServer::TakeResponder): bound to the request's connection, request id
// and semantic interval. Any thread may send it, once. Destroying an unsent
// responder drops the reply (counted in replies_dropped) and ends the
// interval.
class Responder {
 public:
  Responder() = default;  // holds no reply
  Responder(Responder&& other) noexcept;
  ~Responder() { Drop(); }

  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;
  Responder& operator=(Responder&&) = delete;

  explicit operator bool() const { return server_ != nullptr; }

  // Sends `reply` as the request's answer (its request_id is overwritten),
  // then ends the request's interval on the calling thread. A thread that
  // does not work on that interval yet resumes it first, behind a
  // completion edge back to the worker that took the reply over.
  void Send(Frame reply);

 private:
  friend class NetServer;
  Responder(NetServer* server, NetServer::ReplyRoute route)
      : server_(server), route_(std::move(route)) {}
  void Drop();

  NetServer* server_ = nullptr;
  NetServer::ReplyRoute route_;
};

}  // namespace net

#endif  // SRC_NET_SERVER_H_
