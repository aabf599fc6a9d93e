#include "src/vprof/sync.h"

#include <chrono>
#include <unordered_map>

namespace vprof {

uint64_t PackOwnerStamp(ThreadId tid, TimeNs time) {
  // 16 bits of tid, 48 bits of time (enough for ~78 hours of ns).
  return (static_cast<uint64_t>(static_cast<uint16_t>(tid)) << 48) |
         (static_cast<uint64_t>(time) & 0xffffffffffffull);
}

OwnerStamp UnpackOwnerStamp(uint64_t packed) {
  OwnerStamp stamp;
  stamp.tid = static_cast<ThreadId>(static_cast<int16_t>(packed >> 48));
  stamp.time = static_cast<TimeNs>(packed & 0xffffffffffffull);
  return stamp;
}

// --- OwnerMap ---------------------------------------------------------------

struct OwnerMap::Shard {
  mutable std::mutex mu;
  std::unordered_map<const void*, OwnerStamp> map;
};

namespace {
OwnerMap::Shard g_shards[64];
}  // namespace

OwnerMap& OwnerMap::Get() {
  static OwnerMap* map = new OwnerMap();
  return *map;
}

OwnerMap::Shard* OwnerMap::ShardFor(const void* object) const {
  const auto h = reinterpret_cast<uintptr_t>(object);
  return &g_shards[(h >> 4) % kShardCount];
}

void OwnerMap::Record(const void* object, ThreadId tid, TimeNs time) {
  Shard* shard = ShardFor(object);
  std::lock_guard<std::mutex> lock(shard->mu);
  shard->map[object] = OwnerStamp{tid, time};
}

std::optional<OwnerStamp> OwnerMap::Lookup(const void* object) const {
  Shard* shard = ShardFor(object);
  std::lock_guard<std::mutex> lock(shard->mu);
  auto it = shard->map.find(object);
  if (it == shard->map.end()) {
    return std::nullopt;
  }
  return it->second;
}

void OwnerMap::Clear() {
  for (auto& shard : g_shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
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
  const auto owner = OwnerMap::Get().Lookup(this);
  thread->EndBlocked(owner ? owner->tid : kNoThread, owner ? owner->time : -1);
}

bool Mutex::try_lock() { return mu_.try_lock(); }

void Mutex::unlock() {
  if (IsTracing()) {
    OwnerMap::Get().Record(this, CurrentThread()->tid(), Now());
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
  const uint64_t packed = last_notify_.load(std::memory_order_relaxed);
  if (packed != 0) {
    const OwnerStamp stamp = UnpackOwnerStamp(packed);
    thread->EndBlocked(stamp.tid, stamp.time);
  } else {
    thread->EndBlocked(kNoThread, -1);
  }
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
  const uint64_t packed =
      signaled ? last_notify_.load(std::memory_order_relaxed) : 0;
  if (packed != 0) {
    const OwnerStamp stamp = UnpackOwnerStamp(packed);
    thread->EndBlocked(stamp.tid, stamp.time);
  } else {
    thread->EndBlocked(kNoThread, -1);
  }
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
