// Load generator of the benchmark.
//
// One thread drives at most `connections` pipelined connections to a
// NetServer on 127.0.0.1, in one of two modes:
//
//   open loop   arrivals follow a seeded Poisson schedule
//               (workload::GenerateInterArrivalsNs) and every request is
//               written when it is due, whether or not earlier ones were
//               answered, so a stall in the server shows up as queueing in
//               the measured latency instead of throttling the load;
//   saturating  `outstanding` requests are kept in flight for `seconds`, a
//               new one written as each reply arrives: the server runs flat
//               out without the client having to outpace it.
//
// Open-loop sends are scheduled below a millisecond: the thread blocks in
// epoll_pwait2 (nanosecond timeout, 1 ns timer slack) until shortly before
// the next due time and then spins, on a CPU of its own when one is given.
// Every request records when it was due, when it was written and when its
// reply arrived, all on std::chrono::steady_clock, so latency is timed from
// the scheduled send and the generator's own lateness is reported beside
// it.
//
// Accounting is exact: sent = acked + aborted + rejected + failed + in_flight.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

enum class Outcome : uint8_t {
  kInFlight,
  kAcked,     // committed reply
  kAborted,   // reply says the transaction aborted
  kRejected,  // shed by the server (503)
  kFailed,    // kError reply or the connection died
};

struct RequestRecord {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t reply_ns = 0;
  Outcome outcome = Outcome::kInFlight;
};

struct ClientOptions {
  uint16_t port = 0;
  int connections = 4;
  double rate_per_s = 1000.0;  // open loop
  uint64_t outstanding = 0;    // > 0: saturate with this many in flight
  uint64_t max_requests = 0;   // saturating: stop writing after this many
  double seconds = 1.0;
  uint64_t seed = 1;
  // Encoded request frames, used in order and wrapped around; the client
  // stamps each copy with its own request id. Must not be empty.
  const std::vector<std::string>* frames = nullptr;
  // CPU the client thread runs on for the duration of the run (-1: any).
  int cpu = -1;
};

struct ClientResult {
  // One per request written, indexed by request id - 1. A saturating run's
  // requests are due when written.
  std::vector<RequestRecord> requests;
  uint64_t sent = 0;
  uint64_t acked = 0;
  uint64_t aborted = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
  // Requests still kInFlight when the client stopped waiting, counted from
  // the records.
  uint64_t in_flight = 0;
  // Reply frames matched to a request; a request failed by a dying
  // connection got none.
  uint64_t replies = 0;
  bool connect_failed = false;
  int64_t thread_cpu_ns = 0;  // CPU time of the client thread
  int64_t first_due_ns = 0;

  uint64_t errors() const { return aborted + rejected + failed + in_flight; }
  bool balanced() const {
    return requests.size() == sent &&
           sent == acked + aborted + rejected + failed + in_flight;
  }
  // Scheduled-send-to-reply latencies of acked requests, in ns.
  std::vector<double> LatenciesNs() const;
  // Actual-minus-scheduled send time of every sent request, in ns.
  std::vector<double> LatenessNs() const;
};

ClientResult RunClient(const ClientOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
