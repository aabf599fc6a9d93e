#include "src/vprof/sync.h"

#include <chrono>

namespace vprof {

namespace {

// PackOwnerStamp's layout: tid + 1 above kTimeBits bits of time, so that 0
// is the empty stamp.
constexpr int kTimeBits = 40;
constexpr uint64_t kTimeMask = (uint64_t{1} << kTimeBits) - 1;
constexpr uint64_t kTidFieldMax = (uint64_t{1} << (64 - kTimeBits)) - 1;

}  // namespace

uint64_t PackOwnerStamp(ThreadId tid, TimeNs time) {
  if (tid < 0 || static_cast<uint64_t>(tid) >= kTidFieldMax || time < 0 ||
      static_cast<uint64_t>(time) > kTimeMask) {
    return 0;
  }
  return ((static_cast<uint64_t>(tid) + 1) << kTimeBits) |
         static_cast<uint64_t>(time);
}

OwnerStamp UnpackOwnerStamp(uint64_t packed) {
  const uint64_t tid_field = packed >> kTimeBits;
  if (tid_field == 0) {
    return OwnerStamp{};
  }
  return OwnerStamp{static_cast<ThreadId>(tid_field - 1),
                    static_cast<TimeNs>(packed & kTimeMask)};
}

// --- Mutex ------------------------------------------------------------------

void Mutex::lock() {
  if (mu_.try_lock()) {
    return;  // uncontended fast path: no recording needed
  }
  if (!IsTracing()) {
    mu_.lock();
    return;
  }
  ThreadState* thread = CurrentThread();
  thread->BeginBlocked(SegmentState::kBlocked);
  mu_.lock();
  thread->EndBlocked(last_release_.tid, last_release_.time);
}

bool Mutex::try_lock() { return mu_.try_lock(); }

void Mutex::unlock() {
  if (IsTracing()) {
    last_release_ = OwnerStamp{CurrentThread()->tid(), Now()};
  }
  mu_.unlock();
}

// --- CondVar ----------------------------------------------------------------

void CondVar::Wait(Mutex& mu) {
  if (!IsTracing()) {
    cv_.wait(mu);
    return;
  }
  ThreadState* thread = CurrentThread();
  thread->BeginBlocked(SegmentState::kBlocked);
  cv_.wait(mu);
  const OwnerStamp stamp =
      UnpackOwnerStamp(last_notify_.load(std::memory_order_relaxed));
  thread->EndBlocked(stamp.tid, stamp.time);
}

bool CondVar::WaitFor(Mutex& mu, int64_t timeout_ns) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout_ns);
  if (!IsTracing()) {
    return cv_.wait_until(mu, deadline) == std::cv_status::no_timeout;
  }
  ThreadState* thread = CurrentThread();
  thread->BeginBlocked(SegmentState::kBlocked);
  const bool signaled = cv_.wait_until(mu, deadline) == std::cv_status::no_timeout;
  const OwnerStamp stamp =
      signaled ? UnpackOwnerStamp(last_notify_.load(std::memory_order_relaxed))
               : OwnerStamp{};
  thread->EndBlocked(stamp.tid, stamp.time);
  return signaled;
}

void CondVar::NotifyOne() {
  if (IsTracing()) {
    last_notify_.store(PackOwnerStamp(CurrentThread()->tid(), Now()),
                       std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void CondVar::NotifyAll() {
  if (IsTracing()) {
    last_notify_.store(PackOwnerStamp(CurrentThread()->tid(), Now()),
                       std::memory_order_relaxed);
  }
  cv_.notify_all();
}

// --- Event ------------------------------------------------------------------

void Event::Wait() {
  std::lock_guard<Mutex> lock(mu_);
  cv_.Wait(mu_, [this] { return set_; });
}

bool Event::WaitFor(int64_t timeout_ns) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(timeout_ns);
  std::lock_guard<Mutex> lock(mu_);
  while (!set_) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return false;
    }
    const int64_t remaining =
        std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now)
            .count();
    cv_.WaitFor(mu_, remaining);
  }
  return true;
}

void Event::Set() {
  {
    std::lock_guard<Mutex> lock(mu_);
    set_ = true;
  }
  cv_.NotifyAll();
}

void Event::Reset() {
  std::lock_guard<Mutex> lock(mu_);
  set_ = false;
}

bool Event::IsSet() const {
  std::lock_guard<Mutex> lock(mu_);
  return set_;
}

}  // namespace vprof
