#include "perfbench/client.h"

#include <errno.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/workload/openloop.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> ClientResult::LatenciesNs() const {
  std::vector<double> out;
  out.reserve(acked);
  for (const RequestRecord& r : requests) {
    if (r.outcome == Outcome::kAcked) {
      out.push_back(static_cast<double>(r.reply_ns - r.due_ns));
    }
  }
  return out;
}

std::vector<double> ClientResult::LatenessNs() const {
  std::vector<double> out;
  out.reserve(sent);
  for (const RequestRecord& r : requests) {
    out.push_back(static_cast<double>(r.sent_ns - r.due_ns));
  }
  return out;
}

namespace {

// Block in the kernel only when the next send is further away than this;
// closer sends are awaited by spinning so wake-up latency does not make
// them late.
constexpr int64_t kSpinNs = 150'000;
// Replies are not read when a send is due sooner than this: a read costs a
// few microseconds, and the send must not wait behind it.
constexpr int64_t kSendGuardNs = 5'000;
// How long to wait for outstanding replies once the last request is sent.
constexpr int64_t kDrainTimeoutNs = 3'000'000'000;

struct Conn {
  net::Fd fd;
  net::FrameParser parser;
  std::string outbox;
  size_t out_offset = 0;
  bool want_write = false;
  bool dead = false;
  std::vector<uint64_t> pending;  // request ids written, not yet answered
};

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Runs the calling thread on one CPU for the guard's lifetime.
class PinThread {
 public:
  explicit PinThread(int cpu) {
    pinned_ = cpu >= 0 && sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    if (pinned_) {
      cpu_set_t own;
      CPU_ZERO(&own);
      CPU_SET(cpu, &own);
      sched_setaffinity(0, sizeof(own), &own);
    }
  }
  ~PinThread() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinThread(const PinThread&) = delete;
  PinThread& operator=(const PinThread&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

}  // namespace

ClientResult RunClient(const ClientOptions& options) {
  ClientResult result;
  const bool saturate = options.outstanding > 0;
  const size_t total =
      saturate ? 0 : static_cast<size_t>(options.rate_per_s * options.seconds);
  if ((!saturate && total == 0) || options.connections <= 0 ||
      options.frames == nullptr || options.frames->empty()) {
    result.connect_failed = true;
    return result;
  }
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const PinThread pin(options.cpu);

  workload::ArrivalConfig arrivals;
  arrivals.process = workload::ArrivalProcess::kPoisson;
  arrivals.rate_per_sec = options.rate_per_s;
  const std::vector<int64_t> gaps =
      saturate ? std::vector<int64_t>{}
               : workload::GenerateInterArrivalsNs(arrivals, total,
                                                   options.seed);

  net::Fd epoll_fd(::epoll_create1(0));
  if (!epoll_fd.valid()) {
    result.connect_failed = true;
    return result;
  }
  std::vector<Conn> conns(static_cast<size_t>(options.connections));
  for (size_t i = 0; i < conns.size(); ++i) {
    conns[i].fd = net::ConnectLocal(options.port, /*nonblocking=*/true);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (!conns[i].fd.valid() ||
        ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, conns[i].fd.get(), &ev) !=
            0) {
      result.connect_failed = true;
      return result;
    }
  }

  auto& reqs = result.requests;
  reqs.reserve(total);

  auto arm = [&](size_t i) {
    epoll_event ev{};
    ev.events = conns[i].want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_MOD, conns[i].fd.get(), &ev);
  };
  size_t live = conns.size();
  auto kill = [&](size_t i) {
    Conn& c = conns[i];
    if (c.dead) return;
    ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_DEL, c.fd.get(), nullptr);
    c.fd.reset();
    c.dead = true;
    --live;
    for (const uint64_t id : c.pending) {
      RequestRecord& r = reqs[id - 1];
      if (r.outcome == Outcome::kInFlight) {
        r.outcome = Outcome::kFailed;
        ++result.failed;
      }
    }
    c.pending.clear();
  };
  auto flush = [&](size_t i) {
    Conn& c = conns[i];
    while (c.out_offset < c.outbox.size()) {
      const ssize_t n =
          ::send(c.fd.get(), c.outbox.data() + c.out_offset,
                 c.outbox.size() - c.out_offset, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          if (!c.want_write) {
            c.want_write = true;
            arm(i);
          }
          return;
        }
        kill(i);
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
  auto read = [&](size_t i) {
    Conn& c = conns[i];
    uint8_t buf[64 * 1024];
    while (!c.dead) {
      const ssize_t n = ::read(c.fd.get(), buf, sizeof(buf));
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        return;
      }
      if (n <= 0) {
        kill(i);
        return;
      }
      const int64_t now = NowNs();
      frames.clear();
      if (c.parser.Feed(buf, static_cast<size_t>(n), &frames) !=
          net::WireError::kOk) {
        kill(i);
        return;
      }
      for (const net::Frame& frame : frames) {
        const uint64_t id = frame.request_id;
        if (id == 0 || id > reqs.size() ||
            reqs[id - 1].outcome != Outcome::kInFlight) {
          continue;  // unsolicited or duplicate
        }
        RequestRecord& r = reqs[id - 1];
        r.reply_ns = now;
        ++result.replies;
        switch (frame.type) {
          case net::MsgType::kTxnReply:
            if (frame.status == 0) {
              r.outcome = Outcome::kAcked;
              ++result.acked;
            } else {
              r.outcome = Outcome::kAborted;
              ++result.aborted;
            }
            break;
          case net::MsgType::kRejected:
            r.outcome = Outcome::kRejected;
            ++result.rejected;
            break;
          default:
            r.outcome = Outcome::kFailed;
            ++result.failed;
            break;
        }
      }
      if (static_cast<size_t>(n) < sizeof(buf)) return;
    }
  };
  auto answered = [&]() {
    return result.acked + result.aborted + result.rejected + result.failed;
  };

  const int64_t cpu_begin = ThreadCpuNs();
  // Lead time so the first arrivals are not late by the set-up above.
  const int64_t start = NowNs() + 1'000'000;
  const int64_t send_end =
      start + static_cast<int64_t>(options.seconds * 1e9);
  int64_t due = saturate ? start : start + gaps[0];
  result.first_due_ns = due;
  size_t rr = 0;
  const std::vector<std::string>& pool = *options.frames;

  // Whether the run still writes requests, and whether another one may be
  // written at `now`: on schedule, or, when saturating, while the window
  // has room.
  auto sending = [&](int64_t now) {
    if (saturate) {
      return now < send_end && (options.max_requests == 0 ||
                                result.sent < options.max_requests);
    }
    return reqs.size() < total;
  };
  auto may_send = [&](int64_t now) {
    if (saturate) {
      return now >= start && sending(now) &&
             result.sent - answered() < options.outstanding;
    }
    return reqs.size() < total && due <= now;
  };

  // Writes every request that may be sent now. Called between every other
  // piece of work so replies do not delay sends.
  auto send_due = [&]() {
    int64_t now = NowNs();
    while (may_send(now)) {
      size_t tries = conns.size();
      while (tries > 0 && conns[rr % conns.size()].dead) {
        ++rr;
        --tries;
      }
      if (tries == 0) return;
      const size_t ci = rr++ % conns.size();
      Conn& c = conns[ci];
      const uint64_t id = reqs.size() + 1;
      const size_t at = c.outbox.size();
      c.outbox.append(pool[(id - 1) % pool.size()]);
      std::memcpy(c.outbox.data() + at + net::kLengthBytes + 1, &id,
                  sizeof(id));
      c.pending.push_back(id);
      RequestRecord& r = reqs.emplace_back();
      r.due_ns = saturate ? now : due;
      ++result.sent;
      r.sent_ns = NowNs();
      flush(ci);
      if (!saturate && reqs.size() < total) due += gaps[reqs.size()];
      now = NowNs();
    }
  };

  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int64_t drain_deadline = 0;
  while (true) {
    const int64_t now = NowNs();
    if (!sending(now)) {
      if (drain_deadline == 0) {
        drain_deadline = now + kDrainTimeoutNs;
      }
      if (answered() == result.sent || live == 0 || now >= drain_deadline) {
        break;
      }
    }
    send_due();
    if (live == 0) break;

    // Replies are matched by id; the per-connection pending list only
    // serves connection death, so prune it lazily.
    for (Conn& c : conns) {
      if (c.pending.size() > 4096) {
        std::vector<uint64_t> keep;
        for (const uint64_t id : c.pending) {
          if (reqs[id - 1].outcome == Outcome::kInFlight) keep.push_back(id);
        }
        c.pending.swap(keep);
      }
    }

    // Open loop: spin close to the next due time, block before it.
    // Saturating: block until a reply frees a slot.
    const int64_t wait =
        !saturate && sending(now) ? due - NowNs() : 1'000'000;
    if (wait < kSendGuardNs) continue;
    int n = 0;
    if (wait > kSpinNs) {
      const int64_t block = saturate || !sending(now) ? wait : wait - kSpinNs / 2;
      timespec ts{static_cast<time_t>(block / 1'000'000'000),
                  static_cast<long>(block % 1'000'000'000)};
      n = ::epoll_pwait2(epoll_fd.get(), events, kMaxEvents, &ts, nullptr);
    } else {
      n = ::epoll_wait(epoll_fd.get(), events, kMaxEvents, 0);
    }
    for (int e = 0; e < n; ++e) {
      const size_t i = static_cast<size_t>(events[e].data.u64);
      if (conns[i].dead) continue;
      if ((events[e].events & (EPOLLHUP | EPOLLERR)) != 0) {
        read(i);  // collect replies the peer sent before hanging up
        kill(i);
        continue;
      }
      if ((events[e].events & EPOLLOUT) != 0) flush(i);
      if (!conns[i].dead && (events[e].events & EPOLLIN) != 0) read(i);
      send_due();
    }
  }

  for (const RequestRecord& r : reqs) {
    if (r.outcome == Outcome::kInFlight) ++result.in_flight;
  }
  result.thread_cpu_ns = ThreadCpuNs() - cpu_begin;
  return result;
}

}  // namespace perfbench
