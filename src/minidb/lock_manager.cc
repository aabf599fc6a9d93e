#include "src/minidb/lock_manager.h"

#include <algorithm>
#include <chrono>

#include "src/minidb/transaction.h"
#include "src/vprof/probe.h"

namespace minidb {

LockManager::LockManager(LockScheduling scheduling, int64_t wait_timeout_ns,
                         bool detect_deadlocks)
    : scheduling_(scheduling),
      wait_timeout_ns_(wait_timeout_ns),
      detect_deadlocks_(detect_deadlocks),
      shards_(32) {}

std::vector<uint64_t> LockManager::HoldersOf(uint64_t object_id, uint64_t self) {
  Shard& shard = ShardFor(object_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.queues.find(object_id);
  std::vector<uint64_t> holders;
  if (it == shard.queues.end()) {
    return holders;
  }
  for (const Request& r : it->second.granted) {
    if (r.trx_id != self) {
      holders.push_back(r.trx_id);
    }
  }
  return holders;
}

bool LockManager::WouldDeadlock(uint64_t waiter_trx, uint64_t object_id) {
  // BFS over the wait-for graph: waiter -> holders of the wanted object ->
  // objects those transactions wait on -> their holders -> ... A path back
  // to `waiter_trx` is a cycle. Shard and waiting_for_ mutexes are taken one
  // at a time, so the walk sees a possibly inconsistent snapshot; that makes
  // the check advisory (see header), never blocking.
  std::vector<uint64_t> frontier = HoldersOf(object_id, waiter_trx);
  std::unordered_map<uint64_t, bool> visited;
  while (!frontier.empty()) {
    const uint64_t trx = frontier.back();
    frontier.pop_back();
    if (trx == waiter_trx) {
      return true;
    }
    if (visited[trx]) {
      continue;
    }
    visited[trx] = true;
    uint64_t waits_on = 0;
    bool is_waiting = false;
    {
      std::lock_guard<std::mutex> lock(waiting_for_mu_);
      auto it = waiting_for_.find(trx);
      if (it != waiting_for_.end()) {
        waits_on = it->second;
        is_waiting = true;
      }
    }
    if (!is_waiting) {
      continue;
    }
    for (uint64_t holder : HoldersOf(waits_on, trx)) {
      frontier.push_back(holder);
    }
  }
  return false;
}

bool LockManager::Holds(const Transaction* trx, uint64_t object_id,
                        LockMode mode) const {
  const Shard& shard = ShardFor(object_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.queues.find(object_id);
  if (it == shard.queues.end()) {
    return false;
  }
  for (const Request& r : it->second.granted) {
    if (r.trx_id == trx->id() &&
        (r.mode == LockMode::kExclusive || mode == LockMode::kShared)) {
      return true;
    }
  }
  return false;
}

LockResult LockManager::LockEx(Transaction* trx, uint64_t object_id,
                               LockMode mode) {
  VPROF_FUNC("lock_rec_lock");
  Shard& shard = ShardFor(object_id);
  OsEvent* wait_event = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    Queue& queue = shard.queues[object_id];

    // Re-entrant / upgrade handling against our own granted entries.
    for (Request& r : queue.granted) {
      if (r.trx_id != trx->id()) {
        continue;
      }
      if (r.mode == LockMode::kExclusive || mode == LockMode::kShared) {
        return LockResult::kGranted;  // already strong enough
      }
      // Shared held, exclusive requested: upgrade in place if we are alone.
      if (queue.granted.size() == 1) {
        r.mode = LockMode::kExclusive;
        ++shard.stats.upgrades;
        return LockResult::kGranted;
      }
      break;  // must wait for the other holders
    }

    const bool others_compatible = std::all_of(
        queue.granted.begin(), queue.granted.end(), [&](const Request& r) {
          return r.trx_id == trx->id() || Compatible(r.mode, mode);
        });
    if (queue.waiting.empty() && others_compatible) {
      Request granted;
      granted.trx_id = trx->id();
      granted.trx_start_ts = trx->start_ts();
      granted.mode = mode;
      granted.granted = true;
      queue.granted.push_back(std::move(granted));
      trx->AddLock(object_id);
      ++shard.stats.immediate_grants;
      return LockResult::kGranted;
    }

    Request waiter;
    waiter.trx_id = trx->id();
    waiter.trx_start_ts = trx->start_ts();
    waiter.mode = mode;
    waiter.event = std::make_unique<OsEvent>();
    wait_event = waiter.event.get();
    queue.waiting.push_back(std::move(waiter));
    ++shard.stats.waits;
  }

  // Publish the wait-for edge, then check whether blocking here would close
  // a cycle; the requester that would deadlock aborts instead of waiting.
  {
    std::lock_guard<std::mutex> lock(waiting_for_mu_);
    waiting_for_[trx->id()] = object_id;
  }
  bool granted = false;
  bool deadlocked = false;
  if (detect_deadlocks_ && WouldDeadlock(trx->id(), object_id)) {
    deadlocked = true;
  } else {
    // Sleep on the per-request event; the releasing thread Sets it,
    // producing the os_event_wait invocation + wake-up edge the profiler
    // analyzes. The wait is timed on steady_clock, not the profiler's fast
    // clock: StartTracing re-anchors that one to zero, so a wait spanning a
    // tracing rotation would read as a huge wrapped value.
    const auto wait_start = std::chrono::steady_clock::now();
    granted = wait_event->WaitFor(wait_timeout_ns_);
    const auto waited = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - wait_start);
    shard.wait_ns.fetch_add(static_cast<uint64_t>(waited.count()),
                            std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(waiting_for_mu_);
    waiting_for_.erase(trx->id());
  }
  if (granted) {
    trx->AddLock(object_id);
    return LockResult::kGranted;
  }

  // Deadlock or timeout: withdraw the waiting request (it may have been
  // granted during the race window, in which case we keep it).
  std::lock_guard<std::mutex> lock(shard.mu);
  Queue& queue = shard.queues[object_id];
  for (auto it = queue.waiting.begin(); it != queue.waiting.end(); ++it) {
    if (it->trx_id == trx->id() && it->mode == mode) {
      queue.waiting.erase(it);
      if (deadlocked) {
        ++shard.stats.deadlocks;
      } else {
        ++shard.stats.timeouts;
      }
      return deadlocked ? LockResult::kDeadlock : LockResult::kTimeout;
    }
  }
  // Already granted between the failure and here.
  trx->AddLock(object_id);
  return LockResult::kGranted;
}

void LockManager::GrantWaiters(Queue& queue) {
  while (!queue.waiting.empty()) {
    // Pick the next candidate per policy.
    auto candidate = queue.waiting.begin();
    if (scheduling_ == LockScheduling::kVats) {
      candidate = std::min_element(
          queue.waiting.begin(), queue.waiting.end(),
          [](const Request& a, const Request& b) {
            return a.trx_start_ts < b.trx_start_ts;
          });
    }
    const bool grantable = std::all_of(
        queue.granted.begin(), queue.granted.end(), [&](const Request& r) {
          return r.trx_id == candidate->trx_id ||
                 Compatible(r.mode, candidate->mode);
        });
    if (!grantable) {
      return;
    }
    Request req = std::move(*candidate);
    queue.waiting.erase(candidate);
    // Upgrade: replace our own shared entry instead of duplicating. The
    // event is moved into the granted entry so it outlives the waiter's
    // wake-up (it is destroyed only when the lock is released).
    OsEvent* event = nullptr;
    for (Request& r : queue.granted) {
      if (r.trx_id == req.trx_id) {
        r.mode = LockMode::kExclusive;
        r.event = std::move(req.event);
        event = r.event.get();
        break;
      }
    }
    if (event == nullptr) {
      req.granted = true;
      queue.granted.push_back(std::move(req));
      event = queue.granted.back().event.get();
    }
    event->Set();
  }
}

void LockManager::ReleaseAll(Transaction* trx) {
  VPROF_FUNC("lock_release");
  for (uint64_t object_id : trx->lock_set()) {
    Shard& shard = ShardFor(object_id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.queues.find(object_id);
    if (it == shard.queues.end()) {
      continue;
    }
    Queue& queue = it->second;
    queue.granted.erase(
        std::remove_if(queue.granted.begin(), queue.granted.end(),
                       [&](const Request& r) { return r.trx_id == trx->id(); }),
        queue.granted.end());
    GrantWaiters(queue);
    if (queue.granted.empty() && queue.waiting.empty()) {
      shard.queues.erase(it);
    }
  }
  trx->ClearLocks();
}

LockStats LockManager::stats() const {
  LockStats total;
  for (size_t i = 0; i < shards_.size(); ++i) {
    total += ShardStats(static_cast<int>(i));
  }
  return total;
}

LockStats LockManager::ShardStats(int shard) const {
  if (shard < 0 || static_cast<size_t>(shard) >= shards_.size()) {
    return LockStats{};
  }
  const Shard& s = shards_[static_cast<size_t>(shard)];
  LockStats out;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    out = s.stats;
  }
  out.wait_ns = s.wait_ns.load(std::memory_order_relaxed);
  return out;
}

size_t LockManager::ActiveObjects() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.queues.size();
  }
  return n;
}

}  // namespace minidb
