#include "src/minipg/wal.h"

#include <algorithm>
#include <string>

#include "src/vprof/probe.h"

namespace minipg {

namespace {
vprof::ProbeSite g_acquire_or_wait{"LWLockAcquireOrWait"};
vprof::ProbeSite g_issue_xlog_fsync{"issue_xlog_fsync"};
constexpr commitlog::Traits kWalTraits{.failpoint_prefix = "wal",
                                       .block_bytes = 8192,
                                       .wait_probe = &g_acquire_or_wait,
                                       .write_probe = &g_issue_xlog_fsync,
                                       .fsync_probe = nullptr,
                                       .round_probe = nullptr};
}  // namespace

WalUnit::WalUnit(const simio::DiskConfig& disk_config, CommitMode mode)
    : disk_(disk_config), log_(kWalTraits, &disk_, mode) {}

uint64_t WalUnit::Insert(uint64_t bytes) {
  VPROF_FUNC("XLogInsert");
  return log_.Append(bytes);
}

WalStatus WalUnit::Flush(uint64_t lsn) {
  VPROF_FUNC("XLogFlush");
  flush_calls_.fetch_add(1, std::memory_order_relaxed);
  return log_.CommitUpTo(lsn);
}

WalStats WalUnit::stats() const {
  const commitlog::Stats s = log_.stats();
  return WalStats{
      .inserts = s.appends,
      .flush_calls = flush_calls_.load(std::memory_order_relaxed),
      .flushes_performed = s.leader_flushes + s.background_flushes,
      .flush_waits = s.commit_waits,
      .batched_records = s.batched_records,
      .io_errors = s.io_errors,
      .wedges = s.wedges,
      .crashes = s.crashes};
}

Wal::Wal(int units, const simio::DiskConfig& disk_config, CommitMode mode) {
  for (int i = 0; i < std::max(1, units); ++i) {
    simio::DiskConfig config = disk_config;
    config.seed = disk_config.seed + static_cast<uint64_t>(i) * 7919;
    config.fault_scope = disk_config.fault_scope + "." + std::to_string(i);
    units_.push_back(std::make_unique<WalUnit>(config, mode));
  }
}

Wal::Position Wal::Insert(uint64_t bytes) {
  int best = 0;
  int best_waiters = units_[0]->waiters();
  for (int i = 1; i < unit_count(); ++i) {
    const int w = units_[static_cast<size_t>(i)]->waiters();
    if (w < best_waiters) {
      best = i;
      best_waiters = w;
    }
  }
  return InsertAt(best, bytes);
}

Wal::Position Wal::InsertAt(int unit, uint64_t bytes) {
  return Position{unit, units_[static_cast<size_t>(unit)]->Insert(bytes)};
}

WalStatus Wal::Flush(const Position& position) {
  return units_[static_cast<size_t>(position.unit)]->Flush(position.lsn);
}

void Wal::CrashAll(uint64_t seed) {
  for (int i = 0; i < unit_count(); ++i) {
    units_[static_cast<size_t>(i)]->Crash(seed + static_cast<uint64_t>(i));
  }
}

std::vector<WalRecoveryResult> Wal::RecoverAll() {
  std::vector<WalRecoveryResult> results;
  results.reserve(units_.size());
  for (auto& unit : units_) {
    results.push_back(unit->Recover());
  }
  return results;
}

void Wal::Shutdown() {
  for (auto& unit : units_) {
    unit->Shutdown();
  }
}

}  // namespace minipg
