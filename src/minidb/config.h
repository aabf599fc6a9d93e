// Configuration of the minidb engine (the MySQL/InnoDB stand-in).
#ifndef SRC_MINIDB_CONFIG_H_
#define SRC_MINIDB_CONFIG_H_

#include <cstdint>

#include "src/commitlog/commit_log.h"
#include "src/simio/disk.h"

namespace minidb {

// Record-lock scheduling strategy (paper Section 4.5, Table 5).
enum class LockScheduling {
  kFcfs,  // InnoDB default: first come, first served
  kVats,  // Variance-Aware Transaction Scheduling: grant to the oldest txn
};

// Buffer-pool LRU maintenance strategy (paper Section 4.5, Figure 4 left).
enum class BufferPolicy {
  kBlockingMutex,  // baseline: block on the global buffer-pool mutex
  kLazyLruUpdate,  // LLU: bounded try-lock; skip/defer the LRU move on miss
  kSpinLock,       // Table 1 variant: spin instead of sleeping on the mutex
};

// Redo-log durability policy (innodb_flush_log_at_trx_commit; Figure 4
// center).
enum class FlushPolicy {
  kEager,      // write + fsync on every commit (group commit)
  kLazyFlush,  // write at commit; fsync deferred to the log flusher thread
  kLazyWrite,  // write and fsync both deferred to the log flusher thread
};

// How committers share the log device (orthogonal to FlushPolicy, which
// says *when* durability happens; CommitMode says *who* does the I/O).
using CommitMode = commitlog::CommitMode;

struct EngineConfig {
  // Scale: number of warehouses (TPC-C-style). Contention on warehouse and
  // district rows scales with worker_threads / warehouses.
  int warehouses = 4;

  // Buffer pool capacity in pages. Small pools force evictions and make the
  // global buffer-pool mutex the bottleneck (the paper's 2-WH regime).
  int buffer_pool_pages = 2048;

  // Number of independent buffer-pool instances (InnoDB
  // buf_pool_instances). 1 reproduces the paper's single global mutex; the
  // scale-out bench raises this to divide hit-path contention.
  int buffer_pool_instances = 1;

  int rows_per_page = 16;

  LockScheduling lock_scheduling = LockScheduling::kFcfs;
  BufferPolicy buffer_policy = BufferPolicy::kBlockingMutex;
  FlushPolicy flush_policy = FlushPolicy::kEager;
  CommitMode commit_mode = CommitMode::kGroupCommit;

  // Lock-wait timeout before a transaction aborts (ns).
  int64_t lock_wait_timeout_ns = 1000LL * 1000 * 1000;

  // Wait-for-graph deadlock detection (the timeout remains the backstop).
  bool deadlock_detection = true;

  // Lock-manager sharding: shard = (object_id >> lock_shard_range_bits) %
  // lock_shards. range_bits 0 reproduces the historical modulo striping;
  // raising it keeps whole key ranges on one shard, so a hot range's wait
  // time concentrates in one ShardStats row instead of smearing across all
  // of them (the per-shard gauges are how a scaling run localizes a hot
  // range).
  int lock_shards = 32;
  int lock_shard_range_bits = 0;

  // Background log flusher period when a lazy policy is active (us).
  double log_flusher_period_us = 2000.0;

  // Bounded spin budget for the LLU try-lock, in iterations.
  int llu_try_iterations = 64;

  simio::DiskConfig data_disk;
  simio::DiskConfig log_disk;

  uint64_t seed = 1234;

  // Paper's two evaluation regimes, scaled to this simulator (Section 4.5).
  // "128-WH": memory-resident, record-lock contention dominates.
  static EngineConfig MemoryResident() {
    EngineConfig c;
    c.warehouses = 4;
    c.buffer_pool_pages = 1 << 16;  // everything fits
    return c;
  }
  // "2-WH": tiny buffer pool, buffer-pool mutex contention dominates. Record
  // locks spread over more warehouses so that, as in the paper's 2-WH runs,
  // buffer-pool contention (not lock waits) is the dominant factor.
  static EngineConfig MemoryConstrained() {
    EngineConfig c;
    c.warehouses = 8;
    c.buffer_pool_pages = 96;
    c.data_disk.read_mu = 4.6;  // ~100us median page read
    return c;
  }
};

}  // namespace minidb

#endif  // SRC_MINIDB_CONFIG_H_
