#include "src/workload/openloop.h"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>

#include "src/net/conn.h"

namespace workload {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// kBursty shape: the burst state fires at kBurstRateMultiplier times the
// calm state's rate and occupies kBurstTimeFraction of wall time, with a
// mean burst dwell of kBurstDwellMs (the calm dwell follows from the
// fraction). The long-run mean stays rate_per_sec.
constexpr double kBurstRateMultiplier = 8.0;
constexpr double kBurstTimeFraction = 0.1;
constexpr double kBurstDwellMs = 20.0;

}  // namespace

std::vector<int64_t> GenerateInterArrivalsNs(const ArrivalConfig& config,
                                             size_t count, uint64_t seed) {
  std::vector<int64_t> gaps;
  gaps.reserve(count);
  std::mt19937_64 rng(seed);

  if (config.process == ArrivalProcess::kPoisson) {
    std::exponential_distribution<double> exp_gap(config.rate_per_sec / 1e9);
    for (size_t i = 0; i < count; ++i) {
      gaps.push_back(
          std::max<int64_t>(1, static_cast<int64_t>(exp_gap(rng))));
    }
    return gaps;
  }

  // Two-state MMPP. Solve the calm rate so the long-run mean is
  // rate_per_sec:  rate = f*m*rc + (1-f)*rc  =>  rc = rate / (1 - f + f*m).
  const double f = kBurstTimeFraction;
  const double m = kBurstRateMultiplier;
  const double calm_rate = config.rate_per_sec / (1.0 - f + f * m);
  const double burst_rate = m * calm_rate;
  // Dwell means chosen so the burst state occupies fraction f of time.
  const double dwell_burst_ns = kBurstDwellMs * 1e6;
  const double dwell_calm_ns = dwell_burst_ns * (1.0 - f) / f;

  bool burst = false;
  double t = 0.0;
  std::exponential_distribution<double> calm_dwell(1.0 / dwell_calm_ns);
  std::exponential_distribution<double> burst_dwell(1.0 / dwell_burst_ns);
  double switch_t = calm_dwell(rng);
  double last_arrival = 0.0;

  // Exponentials are memoryless, so discarding a draw that crosses the
  // state switch and redrawing at the new rate samples the MMPP exactly.
  while (gaps.size() < count) {
    std::exponential_distribution<double> gap_dist(
        (burst ? burst_rate : calm_rate) / 1e9);
    const double dt = gap_dist(rng);
    if (t + dt >= switch_t) {
      t = switch_t;
      burst = !burst;
      switch_t = t + (burst ? burst_dwell(rng) : calm_dwell(rng));
      continue;
    }
    t += dt;
    gaps.push_back(std::max<int64_t>(
        1, static_cast<int64_t>(t - last_arrival)));
    last_arrival = t;
  }
  return gaps;
}

namespace {

struct GenConn {
  std::unique_ptr<net::FramedConn> io;  // null once the connection died
  // request_ids written on this connection and not yet answered; on
  // connection death they are reclassified as failed.
  std::unordered_map<uint64_t, int64_t> pending_scheduled_ns;
};

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options) {
  OpenLoopResult result;

  size_t total = options.total_requests;
  if (total == 0) {
    total = static_cast<size_t>(options.arrivals.rate_per_sec *
                                options.duration_s);
  }
  if (total == 0 || options.connections == 0 || !options.make_request) {
    result.connect_failed = true;
    return result;
  }
  const std::vector<int64_t> gaps =
      GenerateInterArrivalsNs(options.arrivals, total, options.seed);

  net::EventLoop loop;
  if (!loop.valid()) {
    result.connect_failed = true;
    return result;
  }
  std::vector<GenConn> conns(options.connections);
  uint64_t live_conns = conns.size();
  auto kill_conn = [&](size_t i) {
    GenConn& c = conns[i];
    if (!c.io) {
      return;
    }
    c.io.reset();
    result.failed += c.pending_scheduled_ns.size();
    c.pending_scheduled_ns.clear();
    --live_conns;
  };

  auto on_reply = [&](GenConn& c, const net::Frame& frame) {
    const auto it = c.pending_scheduled_ns.find(frame.request_id);
    if (it == c.pending_scheduled_ns.end()) {
      return;  // duplicate/unsolicited; ignore
    }
    const int64_t scheduled = it->second;
    c.pending_scheduled_ns.erase(it);
    switch (frame.type) {
      case net::MsgType::kTxnReply:
      case net::MsgType::kHttpReply:
      case net::MsgType::kPong:
        ++result.acked;
        result.latencies_ns.push_back(
            std::max<int64_t>(0, NowNs() - scheduled));
        break;
      case net::MsgType::kRejected:
        ++result.rejected;
        break;
      default:
        ++result.failed;
        break;
    }
  };

  auto on_event = [&](size_t i, uint32_t events) {
    GenConn& c = conns[i];
    if (!c.io) {
      return;
    }
    if ((events & (EPOLLHUP | EPOLLERR)) != 0 ||
        ((events & EPOLLOUT) != 0 && c.io->Flush() < 0)) {
      kill_conn(i);
      return;
    }
    if ((events & EPOLLIN) == 0) {
      return;
    }
    // A server that spoke garbage (or closed) fails everything pending on
    // this connection.
    const net::ReadEnd end = c.io->Read([&](net::Frame& frame) {
      on_reply(c, frame);
      return true;
    });
    if (end != net::ReadEnd::kDrained) {
      kill_conn(i);
    }
  };

  for (size_t i = 0; i < conns.size(); ++i) {
    net::Fd fd = net::ConnectLocal(options.port, /*nonblocking=*/true);
    if (!fd.valid()) {
      result.connect_failed = true;
      return result;
    }
    conns[i].io = std::make_unique<net::FramedConn>(&loop, std::move(fd));
    if (!conns[i].io->Watch(
            [&on_event, i](uint32_t events) { on_event(i, events); })) {
      result.connect_failed = true;
      return result;
    }
  }

  const int64_t start_ns = NowNs();
  size_t next_arrival = 0;
  int64_t next_arrival_at = start_ns + gaps[0];
  uint64_t next_request_id = 1;
  int64_t last_send_ns = -1;
  size_t rr = 0;  // round-robin connection cursor
  int64_t drain_deadline_ns = 0;

  auto outstanding = [&]() -> uint64_t {
    return result.sent - result.acked - result.rejected - result.failed;
  };

  // Every loop tick: send each arrival whose scheduled time has passed, then
  // stop once the schedule is sent and the replies are drained.
  auto on_tick = [&] {
    const int64_t now = NowNs();
    while (next_arrival < gaps.size() && now >= next_arrival_at &&
           live_conns > 0) {
      while (!conns[rr % conns.size()].io) {
        ++rr;  // skip dead connections
      }
      const size_t ci = rr++ % conns.size();
      net::Frame request = options.make_request(next_arrival);
      request.request_id = next_request_id++;
      std::string bytes;
      net::EncodeFrame(request, &bytes);
      conns[ci].pending_scheduled_ns.emplace(request.request_id,
                                             next_arrival_at);
      ++result.sent;
      const int64_t sent_at = NowNs();
      if (last_send_ns >= 0) {
        result.realized_interarrival_ns.push_back(sent_at - last_send_ns);
      }
      last_send_ns = sent_at;
      if (conns[ci].io->Send(bytes) < 0) {
        kill_conn(ci);
      }
      ++next_arrival;
      if (next_arrival < gaps.size()) {
        next_arrival_at += gaps[next_arrival];
      }
    }
    if (next_arrival < gaps.size()) {
      if (live_conns == 0) {
        loop.Stop();  // every connection died; the rest is unsendable
      }
      return;
    }
    if (drain_deadline_ns == 0) {
      drain_deadline_ns =
          NowNs() + static_cast<int64_t>(options.drain_timeout_ms) * 1000000;
    }
    if (outstanding() == 0 || live_conns == 0 || NowNs() >= drain_deadline_ns) {
      loop.Stop();
    }
  };
  loop.Run(/*tick_ms=*/1, on_tick);

  result.in_flight = outstanding();
  const int64_t end_ns = NowNs();
  result.duration_s = static_cast<double>(end_ns - start_ns) / 1e9;
  int64_t schedule_span = 0;
  for (const int64_t g : gaps) {
    schedule_span += g;
  }
  result.offered_per_s = schedule_span > 0
                             ? static_cast<double>(gaps.size()) /
                                   (static_cast<double>(schedule_span) / 1e9)
                             : 0.0;
  result.achieved_per_s =
      result.duration_s > 0.0
          ? static_cast<double>(result.acked) / result.duration_s
          : 0.0;
  return result;
}

}  // namespace workload
