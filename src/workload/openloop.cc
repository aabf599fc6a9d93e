#include "src/workload/openloop.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <unordered_map>

#include "src/net/socket.h"

namespace workload {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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
  const double f = std::clamp(config.burst_time_fraction, 0.01, 0.99);
  const double m = std::max(config.burst_rate_multiplier, 1.0);
  const double calm_rate = config.rate_per_sec / (1.0 - f + f * m);
  const double burst_rate = m * calm_rate;
  // Dwell means chosen so the burst state occupies fraction f of time.
  const double dwell_burst_ns = config.burst_dwell_ms * 1e6;
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

struct ClientConn {
  net::Fd fd;
  net::FrameParser parser;
  std::string outbox;
  size_t out_offset = 0;
  bool want_write = false;
  bool dead = false;
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

  net::Fd epoll_fd(::epoll_create1(0));
  if (!epoll_fd.valid()) {
    result.connect_failed = true;
    return result;
  }

  std::vector<ClientConn> conns(options.connections);
  for (size_t i = 0; i < conns.size(); ++i) {
    conns[i].fd = net::ConnectLocal(options.port, /*nonblocking=*/true);
    if (!conns[i].fd.valid()) {
      result.connect_failed = true;
      return result;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered; EPOLLOUT armed on demand
    ev.data.u64 = i;
    if (::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, conns[i].fd.get(), &ev) !=
        0) {
      result.connect_failed = true;
      return result;
    }
  }

  auto arm = [&](size_t i) {
    epoll_event ev{};
    ev.events = conns[i].want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_MOD, conns[i].fd.get(), &ev);
  };

  uint64_t live_conns = conns.size();
  auto kill_conn = [&](size_t i) {
    ClientConn& c = conns[i];
    if (c.dead) {
      return;
    }
    ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_DEL, c.fd.get(), nullptr);
    c.fd.reset();
    c.dead = true;
    result.failed += c.pending_scheduled_ns.size();
    c.pending_scheduled_ns.clear();
    --live_conns;
  };

  auto flush_conn = [&](size_t i) {
    ClientConn& c = conns[i];
    while (c.out_offset < c.outbox.size()) {
      const ssize_t n =
          ::send(c.fd.get(), c.outbox.data() + c.out_offset,
                 c.outbox.size() - c.out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          if (!c.want_write) {
            c.want_write = true;
            arm(i);
          }
          return;
        }
        kill_conn(i);
        return;
      }
      c.out_offset += static_cast<size_t>(n);
    }
    c.outbox.clear();
    c.out_offset = 0;
    if (c.want_write) {
      c.want_write = false;
      arm(i);
    }
  };

  std::vector<net::Frame> frames;
  auto read_conn = [&](size_t i) {
    ClientConn& c = conns[i];
    uint8_t buf[16 * 1024];
    while (!c.dead) {
      const ssize_t n = ::read(c.fd.get(), buf, sizeof(buf));
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          return;
        }
        kill_conn(i);
        return;
      }
      if (n == 0) {
        kill_conn(i);
        return;
      }
      frames.clear();
      if (c.parser.Feed(buf, static_cast<size_t>(n), &frames) !=
          net::WireError::kOk) {
        // Server spoke garbage (or sent kError as a stream): everything
        // pending on this connection is failed.
        kill_conn(i);
        return;
      }
      const int64_t now = NowNs();
      for (const net::Frame& frame : frames) {
        const auto it = c.pending_scheduled_ns.find(frame.request_id);
        if (it == c.pending_scheduled_ns.end()) {
          continue;  // duplicate/unsolicited; ignore
        }
        const int64_t scheduled = it->second;
        c.pending_scheduled_ns.erase(it);
        switch (frame.type) {
          case net::MsgType::kTxnReply:
          case net::MsgType::kHttpReply:
          case net::MsgType::kPong:
            ++result.acked;
            result.latencies_ns.push_back(std::max<int64_t>(
                0, now - scheduled));
            break;
          case net::MsgType::kRejected:
            ++result.rejected;
            break;
          default:
            ++result.failed;
            break;
        }
      }
      if (static_cast<size_t>(n) < sizeof(buf)) {
        return;  // drained
      }
    }
  };

  const int64_t start_ns = NowNs();
  size_t next_arrival = 0;
  int64_t next_arrival_at = start_ns + gaps[0];
  uint64_t next_request_id = 1;
  int64_t last_send_ns = -1;
  size_t rr = 0;  // round-robin connection cursor

  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];

  auto outstanding = [&]() -> uint64_t {
    return result.sent - result.acked - result.rejected - result.failed;
  };

  // Phase 1: run the schedule. Phase 2: drain in-flight replies.
  int64_t drain_deadline_ns = 0;
  while (true) {
    const bool sending = next_arrival < gaps.size();
    if (!sending) {
      if (drain_deadline_ns == 0) {
        drain_deadline_ns =
            NowNs() + static_cast<int64_t>(options.drain_timeout_ms) * 1000000;
      }
      if (outstanding() == 0 || live_conns == 0 ||
          NowNs() >= drain_deadline_ns) {
        break;
      }
    }

    // Send every arrival whose scheduled tick has passed (millisecond
    // batching: epoll_wait granularity).
    const int64_t now = NowNs();
    while (next_arrival < gaps.size() && now >= next_arrival_at) {
      // Pick the next live connection round-robin.
      size_t tries = conns.size();
      while (tries > 0 && conns[rr % conns.size()].dead) {
        ++rr;
        --tries;
      }
      if (tries == 0) {
        break;  // every connection died; remaining schedule unsendable
      }
      const size_t ci = rr % conns.size();
      ++rr;

      net::Frame request = options.make_request(next_arrival);
      request.request_id = next_request_id++;
      std::string bytes;
      net::EncodeFrame(request, &bytes);
      ClientConn& c = conns[ci];
      c.outbox.append(bytes);
      c.pending_scheduled_ns.emplace(request.request_id, next_arrival_at);
      ++result.sent;
      const int64_t sent_at = NowNs();
      if (last_send_ns >= 0) {
        result.realized_interarrival_ns.push_back(sent_at - last_send_ns);
      }
      last_send_ns = sent_at;
      flush_conn(ci);

      ++next_arrival;
      if (next_arrival < gaps.size()) {
        next_arrival_at += gaps[next_arrival];
      }
    }
    if (next_arrival < gaps.size() && live_conns == 0) {
      break;  // nothing left to send on
    }

    int timeout_ms = 1;
    if (sending) {
      const int64_t wait_ns = next_arrival_at - NowNs();
      timeout_ms = wait_ns <= 0
                       ? 0
                       : static_cast<int>(
                             std::min<int64_t>(wait_ns / 1000000 + 1, 10));
    } else {
      timeout_ms = 10;
    }
    const int n = ::epoll_wait(epoll_fd.get(), events, kMaxEvents, timeout_ms);
    for (int e = 0; e < n; ++e) {
      const size_t i = static_cast<size_t>(events[e].data.u64);
      if (conns[i].dead) {
        continue;
      }
      if ((events[e].events & (EPOLLHUP | EPOLLERR)) != 0) {
        kill_conn(i);
        continue;
      }
      if ((events[e].events & EPOLLOUT) != 0) {
        flush_conn(i);
      }
      if (!conns[i].dead && (events[e].events & EPOLLIN) != 0) {
        read_conn(i);
      }
    }
  }

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
