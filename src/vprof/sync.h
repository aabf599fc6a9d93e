// Instrumented synchronization primitives (paper Section 3.3.2).
//
// The paper wraps an application's blocking primitives so the runtime can log
// (a) blocked segments and (b) wake-up dependence edges <tid, tid', t>. Lock
// ownership is tracked through a global hash map of [object -> last releasing
// thread], exactly as described in the paper. Applications built in this
// repository use vprof::Mutex / CondVar / Event wherever a blocking wait can
// put a semantic interval's critical path onto another thread.
#ifndef SRC_VPROF_SYNC_H_
#define SRC_VPROF_SYNC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>

#include "src/vprof/runtime.h"
#include "src/vprof/types.h"

namespace vprof {

// Last thread to release/signal a synchronization object, and when.
struct OwnerStamp {
  ThreadId tid = kNoThread;
  TimeNs time = -1;
};

// Global sharded map: synchronization object address -> last releasing
// thread. Matches the [oid -> tid] hash map of paper Section 3.3.2.
class OwnerMap {
 public:
  static OwnerMap& Get();

  void Record(const void* object, ThreadId tid, TimeNs time);
  std::optional<OwnerStamp> Lookup(const void* object) const;
  void Clear();

  struct Shard;

 private:
  OwnerMap() = default;
  static constexpr int kShardCount = 64;
  Shard* ShardFor(const void* object) const;
};

// Mutex whose contended acquisitions are recorded as blocked segments with a
// wake-up edge to the previous holder. Satisfies BasicLockable.
class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock();
  bool try_lock();
  void unlock();

 private:
  std::mutex mu_;
};

// Condition variable usable with vprof::Mutex; notifiers are recorded so a
// woken waiter's blocked segment carries the correct wake-up edge.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Caller must hold `mu`. Predicate-free wait; spurious wakeups possible,
  // callers loop as with std::condition_variable.
  void Wait(Mutex& mu);

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) {
    while (!pred()) {
      Wait(mu);
    }
  }

  // Waits up to `timeout_ns`; returns false on timeout (predicate-free,
  // spurious wakeups possible).
  bool WaitFor(Mutex& mu, int64_t timeout_ns);

  void NotifyOne();
  void NotifyAll();

 private:
  std::condition_variable_any cv_;
  // Packed (tid << 48 | time_ns) stamp of the last notifier; racy reads are
  // acceptable for diagnostic edges.
  std::atomic<uint64_t> last_notify_{0};

  friend class Event;
};

// Binary event in the style of InnoDB's os_event: Set wakes all current and
// future waiters until Reset. Set notifies after releasing the lock, so a
// waiter can return from Wait while Set is still running: the event must
// outlive the Set call, not only the Wait.
class Event {
 public:
  Event() = default;

  // Blocks until the event is set. The wait is recorded as a blocked segment
  // whose wake-up edge points at the setter.
  void Wait();

  // Blocks until set or timeout; returns false on timeout.
  bool WaitFor(int64_t timeout_ns);

  void Set();
  void Reset();
  bool IsSet() const;

 private:
  mutable Mutex mu_;
  CondVar cv_;
  bool set_ = false;
};

// Packs/unpacks notifier stamps (exposed for tests).
uint64_t PackOwnerStamp(ThreadId tid, TimeNs time);
OwnerStamp UnpackOwnerStamp(uint64_t packed);

}  // namespace vprof

#endif  // SRC_VPROF_SYNC_H_
