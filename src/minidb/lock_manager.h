// Record-level two-phase locking with pluggable wait scheduling.
//
// InnoDB grants waiting record locks First-Come-First-Served; the paper's
// headline MySQL finding (Table 5) is that switching to Variance-Aware
// Transaction Scheduling — grant the lock to the *oldest* waiting
// transaction — removes most of the latency variance that surfaced through
// `os_event_wait`. Both policies are implemented here. Waiters sleep on a
// per-request OsEvent, so every lock wait is visible to the profiler as an
// os_event_wait invocation with a wake-up edge to the releasing thread.
#ifndef SRC_MINIDB_LOCK_MANAGER_H_
#define SRC_MINIDB_LOCK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/minidb/config.h"
#include "src/minidb/os_event.h"

namespace minidb {

enum class LockMode : uint8_t {
  kShared,
  kExclusive,
};

// Typed outcome of a lock request, so callers can distinguish the two
// abort causes (both retryable, but with different client-visible meaning).
enum class LockResult : uint8_t {
  kGranted,
  kTimeout,   // waited wait_timeout_ns without a grant
  kDeadlock,  // aborted by the deadlock detector
};

struct LockStats {
  uint64_t immediate_grants = 0;
  uint64_t waits = 0;
  uint64_t timeouts = 0;
  uint64_t upgrades = 0;
  uint64_t deadlocks = 0;   // waits aborted by the deadlock detector
  uint64_t wait_ns = 0;     // total time spent blocked on lock waits

  LockStats& operator+=(const LockStats& other) {
    immediate_grants += other.immediate_grants;
    waits += other.waits;
    timeouts += other.timeouts;
    upgrades += other.upgrades;
    deadlocks += other.deadlocks;
    wait_ns += other.wait_ns;
    return *this;
  }
};

class Transaction;

class LockManager {
 public:
  // `detect_deadlocks` runs a best-effort wait-for-graph cycle check before
  // each blocking wait (InnoDB-style): the requester that would close a
  // cycle aborts immediately instead of stalling until the timeout. The
  // check is advisory — concurrent graph changes can race it — so the
  // timeout remains the backstop. Objects are striped over 32 shards by id.
  explicit LockManager(LockScheduling scheduling,
                       int64_t wait_timeout_ns = 5LL * 1000 * 1000 * 1000,
                       bool detect_deadlocks = true);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Acquires (or upgrades) a lock on `object_id` for `trx`. Blocks until
  // granted; returns false on timeout or deadlock (caller must abort the
  // transaction). Convenience wrapper over LockEx.
  bool Lock(Transaction* trx, uint64_t object_id, LockMode mode) {
    return LockEx(trx, object_id, mode) == LockResult::kGranted;
  }

  // As Lock, but reports which failure occurred.
  LockResult LockEx(Transaction* trx, uint64_t object_id, LockMode mode);

  // Releases every lock held by `trx`, waking newly-grantable waiters.
  void ReleaseAll(Transaction* trx);

  // Aggregate over all shards.
  LockStats stats() const;

  // Per-shard wait statistics, for the engine's scale gauges: a hot key
  // shows up as one shard carrying most of the wait_ns.
  LockStats ShardStats(int shard) const;
  int shard_count() const { return static_cast<int>(shards_.size()); }

  // True if `trx` holds a lock on the object at least as strong as `mode`.
  bool Holds(const Transaction* trx, uint64_t object_id, LockMode mode) const;

  // Number of objects with a non-empty queue (for tests).
  size_t ActiveObjects() const;

 private:
  struct Request {
    uint64_t trx_id = 0;
    int64_t trx_start_ts = 0;
    LockMode mode = LockMode::kShared;
    bool granted = false;
    std::unique_ptr<OsEvent> event;  // waiters only
  };

  struct Queue {
    std::vector<Request> granted;
    std::deque<Request> waiting;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Queue> queues;
    LockStats stats;  // guarded by mu, except wait_ns
    // Accumulated outside the shard mutex (the granted-wait path never
    // retakes it), folded into stats by the accessors.
    std::atomic<uint64_t> wait_ns{0};
  };

  size_t ShardIndex(uint64_t object_id) const {
    return static_cast<size_t>(object_id % shards_.size());
  }
  Shard& ShardFor(uint64_t object_id) {
    return shards_[ShardIndex(object_id)];
  }
  const Shard& ShardFor(uint64_t object_id) const {
    return shards_[ShardIndex(object_id)];
  }

  // Grants every waiter that the policy allows; must hold the shard mutex.
  void GrantWaiters(Queue& queue);

  // True if blocking `waiter_trx` on `object_id` would close a wait-for
  // cycle. Takes shard mutexes one at a time; must be called with no shard
  // mutex held.
  bool WouldDeadlock(uint64_t waiter_trx, uint64_t object_id);

  // Granted holders of an object (excluding `self`).
  std::vector<uint64_t> HoldersOf(uint64_t object_id, uint64_t self);

  static bool Compatible(LockMode a, LockMode b) {
    return a == LockMode::kShared && b == LockMode::kShared;
  }

  LockScheduling scheduling_;
  int64_t wait_timeout_ns_;
  bool detect_deadlocks_;
  std::vector<Shard> shards_;  // sized once at construction, never resized

  // Wait-for graph: which object each blocked transaction is waiting on.
  std::mutex waiting_for_mu_;
  std::unordered_map<uint64_t, uint64_t> waiting_for_;
};

}  // namespace minidb

#endif  // SRC_MINIDB_LOCK_MANAGER_H_
