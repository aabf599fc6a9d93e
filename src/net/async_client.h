// AsyncClient: the front tier's non-blocking RPC pool (ROADMAP item 5).
//
// One event-loop thread multiplexes a small set of pipelined connections to
// a single backend NetServer. Any number of application threads may Call()
// concurrently: the caller stamps the outgoing frame with a trace-context
// extension ({interval_id, span_id, origin_service, send time}), posts the
// bytes to the loop, and blocks on an instrumented vprof::Event until the
// loop matches the reply by request id. The instrumented wait is the whole
// point — the caller's blocked segment carries a wake-up edge to the loop
// thread, and dist::TraceStitcher later replaces that hop with a
// generator edge to the *backend worker* that actually produced the reply,
// so the critical-path walker crosses the wire instead of dead-ending in
// epoll.
//
// CalibrateClock runs the NTP-style handshake the stitcher needs: vprof's
// TSC fastclock is run-relative per process, so backend stamps are
// meaningless on the front's axis until the offset from a
// kClockSync/kClockSyncReply exchange (offset = (t1+t3)/2 - t2 at the
// minimum-RTT sample) is applied.
#ifndef SRC_NET_ASYNC_CLIENT_H_
#define SRC_NET_ASYNC_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/conn.h"
#include "src/net/event_loop.h"
#include "src/net/protocol.h"
#include "src/vprof/runtime.h"
#include "src/vprof/sync.h"

namespace net {

// Probe name wrapping every stamped RPC on the caller thread.
inline constexpr char kRpcCallFunc[] = "rpc:call";

// One client-side span: the front half of an RPC, joined by the stitcher
// with the backend's ServerSpanRecord on (service, span_id).
struct ClientSpanRecord {
  ServiceId service = ServiceId::kUnknown;  // backend tier that was called
  uint64_t span_id = 0;
  uint64_t interval_id = 0;        // front-tier sid stamped on the request
  vprof::TimeNs send_time_ns = 0;  // caller fastclock just before the post
  vprof::TimeNs recv_time_ns = 0;  // caller fastclock after the wake
  vprof::ThreadId caller_tid = vprof::kNoThread;
  // Echoed backend half (from the reply's server-timing extension).
  bool has_server_timing = false;
  ServerTiming server;
};

// Result of CalibrateClock. offset_ns is the amount to ADD to the backend's
// fastclock stamps to express them on this process's clock; taken from the
// minimum-RTT exchange, where the midpoint assumption is tightest.
struct ClockCalibration {
  bool valid = false;
  int64_t offset_ns = 0;
  int64_t min_rtt_ns = 0;
  int rounds = 0;
};

struct AsyncClientOptions {
  uint16_t port = 0;
  size_t connections = 2;
  ServiceId service = ServiceId::kUnknown;  // backend identity (span records)
  int64_t call_timeout_ns = 5'000'000'000;  // 5 s
  // Receives a record per completed stamped Call, on the caller thread.
  std::function<void(const ClientSpanRecord&)> span_sink;
};

struct AsyncClientStats {
  uint64_t calls = 0;
  uint64_t failures = 0;  // timeouts, dead connections, shutdown
  uint64_t rejected = 0;  // backend shed the request (kRejected)
};

class AsyncClient {
 public:
  explicit AsyncClient(const AsyncClientOptions& options);
  ~AsyncClient();

  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  // Connects every socket and spins the loop thread. False when the backend
  // is unreachable or the loop could not come up. On success the loop thread
  // has registered with vprof, so loop_tid() is immediately valid — tier
  // rosters (dist::SplitByTids) are built from it right after connecting.
  bool Connect();

  // Fails all in-flight calls, closes the sockets, joins the loop thread.
  // Idempotent.
  void Shutdown();

  // Stamps `request` with a trace-context extension (interval id from the
  // calling thread's current interval), sends it, blocks until the reply or
  // the timeout. Returns false on timeout/failure. kRejected replies are
  // returned as successes with *reply carrying the rejection — overload is
  // an answer, not a transport failure.
  bool Call(Frame request, Frame* reply);

  // Runs `rounds` kClockSync exchanges (unstamped, answered inline on the
  // backend loop thread) and derives the fastclock offset.
  ClockCalibration CalibrateClock(int rounds);

  bool connected() const { return connected_.load(std::memory_order_acquire); }
  vprof::ThreadId loop_tid() const;
  AsyncClientStats stats() const;

 private:
  struct PendingCall {
    vprof::Event done;
    Frame reply;
    bool ok = false;
  };
  bool CallInternal(Frame request, Frame* reply);

  // --- loop-thread only ---------------------------------------------------
  void OnConnEvent(size_t conn_index, uint32_t events);
  void KillConn(size_t conn_index);

  void CompletePending(Frame reply);
  void FailAllPending();

  AsyncClientOptions options_;
  EventLoop loop_;
  std::thread loop_thread_;
  // Loop-thread owned; a dead connection's slot is null.
  std::vector<std::unique_ptr<FramedConn>> conns_;

  std::atomic<bool> connected_{false};
  std::atomic<bool> shut_down_{false};
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<size_t> next_conn_{0};

  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> rejected_{0};

  mutable std::mutex mu_;  // pending map + loop tid
  std::condition_variable loop_tid_ready_;
  std::unordered_map<uint64_t, std::shared_ptr<PendingCall>> pending_;
  vprof::ThreadId loop_tid_ = vprof::kNoThread;
};

// Process-wide span-id allocator: unique across every AsyncClient in the
// process, so stitch keys (service, span_id) never collide locally.
uint64_t NextSpanId();

}  // namespace net

#endif  // SRC_NET_ASYNC_CLIENT_H_
