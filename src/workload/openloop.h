// Open-loop load generator for the network front-end.
//
// A closed-loop driver (ab.h) can never push a server past saturation: every
// stalled request stalls its generator, so offered load collapses to service
// rate exactly when the latency tail is most interesting. The open-loop
// driver decouples the two — arrivals follow a pre-generated stochastic
// schedule (Poisson or bursty MMPP) and are written on their scheduled tick
// whether or not earlier requests completed, so queueing delay shows up in
// the measured distribution instead of silently throttling the workload
// (the paper measures production-shaped latency variance; open-loop arrivals
// are what make overload reachable at all).
//
// Latency is measured from the SCHEDULED arrival to the reply, not from the
// actual write(2) — the coordinated-omission-free number.
//
// Accounting is exact by construction and asserted by the statistical
// self-test: sent == acked + rejected + failed + in_flight at every drain.
#ifndef SRC_WORKLOAD_OPENLOOP_H_
#define SRC_WORKLOAD_OPENLOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/protocol.h"

namespace workload {

enum class ArrivalProcess {
  kPoisson,  // exponential inter-arrivals, CV = 1
  kBursty,   // 2-state Markov-modulated Poisson (calm/burst), CV > 1
};

struct ArrivalConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  double rate_per_sec = 1000.0;  // long-run mean arrival rate
};

// The arrival schedule itself, exposed so the statistical self-test can
// check CV ≈ 1 (Poisson) and CV > 1 (bursty) without sockets. Deterministic
// in `seed`.
std::vector<int64_t> GenerateInterArrivalsNs(const ArrivalConfig& config,
                                             size_t count, uint64_t seed);

struct OpenLoopOptions {
  uint16_t port = 0;
  size_t connections = 64;    // arrivals round-robin across these
  size_t total_requests = 0;  // schedule length (0 derives from duration)
  double duration_s = 1.0;    // used when total_requests == 0
  ArrivalConfig arrivals;
  uint64_t seed = 42;

  // Builds the i-th request frame (request_id is assigned by the driver).
  std::function<net::Frame(uint64_t index)> make_request;

  // How long to wait for in-flight replies after the last send.
  int drain_timeout_ms = 5000;
};

struct OpenLoopResult {
  // Exact at drain: sent == acked + rejected + failed + in_flight.
  uint64_t sent = 0;      // requests written to a socket
  uint64_t acked = 0;     // kTxnReply / kHttpReply / kPong received
  uint64_t rejected = 0;  // kRejected (503) received
  uint64_t failed = 0;    // connection died / kError before a reply
  uint64_t in_flight = 0; // never answered within the drain timeout

  std::vector<int64_t> latencies_ns;          // acked only, scheduled->reply
  std::vector<int64_t> realized_interarrival_ns;  // actual send spacing
  double duration_s = 0.0;   // first scheduled send -> last reply (or drain)
  double offered_per_s = 0.0;   // schedule rate
  double achieved_per_s = 0.0;  // acked / duration

  bool connect_failed = false;  // setup never completed; counters are zero
};

// Runs the schedule against a NetServer on 127.0.0.1:port. Single-threaded:
// a net::EventLoop on the calling thread drives every connection (one
// net::FramedConn each); sends happen on the loop's 1 ms tick, replies are
// matched by request_id.
OpenLoopResult RunOpenLoop(const OpenLoopOptions& options);

}  // namespace workload

#endif  // SRC_WORKLOAD_OPENLOOP_H_
