// Instrumented synchronization primitives (paper Section 3.3.2).
//
// The paper wraps an application's blocking primitives so the runtime can log
// (a) blocked segments and (b) wake-up dependence edges <tid, tid', t>. It
// finds a lock's last releasing thread through a global hash map of
// [object -> last releasing thread], because it instruments locks it does not
// own. Every instrumented lock here is a vprof::Mutex this repository owns,
// so each one keeps its last releaser inline, which serves the same purpose.
// Applications built in this repository use vprof::Mutex / CondVar / Event
// wherever a blocking wait can put a semantic interval's critical path onto
// another thread.
#ifndef SRC_VPROF_SYNC_H_
#define SRC_VPROF_SYNC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/vprof/runtime.h"
#include "src/vprof/types.h"

namespace vprof {

// Last thread to release/signal a synchronization object, and when.
struct OwnerStamp {
  ThreadId tid = kNoThread;
  TimeNs time = -1;
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
  // The last traced release: written before unlock and read after lock, so
  // mu_ itself orders the two.
  OwnerStamp last_release_;
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
  // PackOwnerStamp of the last notifier; 0 until the first traced notify.
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

// Packs a notifier stamp into one word: tid + 1 in the top 24 bits, time in
// the low 40 (about 18 minutes of ns). A stamp whose tid or time does not
// fit packs to 0, which unpacks to no thread, so an unpacked stamp names the
// notifier or no thread at all. Exposed for tests.
uint64_t PackOwnerStamp(ThreadId tid, TimeNs time);
OwnerStamp UnpackOwnerStamp(uint64_t packed);

}  // namespace vprof

#endif  // SRC_VPROF_SYNC_H_
