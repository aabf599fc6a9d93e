#include "src/commitlog/commit_log.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "src/fault/failpoint.h"
#include "src/statkit/rng.h"
#include "src/vprof/probe.h"

namespace commitlog {

namespace {
constexpr uint32_t kTornChecksumMask = 0xA5A5A5A5u;

// Backstop for the one race where a follower misses both the set and the
// reset of its round's event; it re-checks flushed_lsn and re-waits.
constexpr int64_t kFollowerWaitNs = 10LL * 1000 * 1000;

// A probe at one of the engine's named points, or none.
struct MaybeProbe {
  explicit MaybeProbe(vprof::ProbeSite* site) {
    if (site != nullptr) {
      probe.emplace(*site);
    }
  }
  std::optional<vprof::ScopedProbe> probe;
};
}  // namespace

uint32_t RecordChecksum(uint64_t end_lsn, uint64_t bytes) {
  uint64_t h = 1469598103934665603ull;
  h = (h ^ end_lsn) * 1099511628211ull;
  h = (h ^ bytes) * 1099511628211ull;
  return static_cast<uint32_t>(h ^ (h >> 32));
}

CommitLog::CommitLog(const Traits& traits, simio::Disk* disk, CommitMode mode)
    : traits_(traits), mode_(mode), disk_(disk) {}

uint64_t CommitLog::Append(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(buffer_mu_);
  if (EntryStatus() != Status::kOk) {
    return 0;
  }
  const uint64_t end_lsn =
      next_lsn_.fetch_add(bytes, std::memory_order_acq_rel) + bytes - 1;
  buffer_records_.push_back(
      Record{end_lsn, bytes, RecordChecksum(end_lsn, bytes)});
  stat_appends_.fetch_add(1, std::memory_order_relaxed);
  return end_lsn;
}

Status CommitLog::Health() const {
  if (crashed()) {
    return Status::kCrashed;
  }
  return wedged() ? Status::kWedged : Status::kOk;
}

Status CommitLog::EntryStatus() const {
  const Status health = Health();
  return health == Status::kOk && shutdown() ? Status::kShutdown : health;
}

Status CommitLog::Refusal(uint64_t lsn) const {
  // An LSN at or past next_lsn was appended before a crash and lost; the
  // caller must treat the transaction as failed.
  const Status health = Health();
  return health == Status::kOk && lsn >= next_lsn() ? Status::kCrashed
                                                     : health;
}

bool CommitLog::Fires(const char* point, uint64_t* value) const {
  return fault::AnyActive() &&
         fault::TriggeredValue(traits_.failpoint_prefix + std::string(point),
                               value);
}

Status CommitLog::CommitUpTo(uint64_t lsn) {
  if (const Status status = EntryStatus(); status != Status::kOk) {
    return status;
  }
  return mode_ == CommitMode::kGroupCommit ? GroupCommitUpTo(lsn)
                                           : ExclusiveCommitUpTo(lsn);
}

Status CommitLog::GroupCommitUpTo(uint64_t lsn) {
  while (flushed_lsn() < lsn) {
    if (const Status status = Refusal(lsn); status != Status::kOk) {
      return status;
    }
    {
      MaybeProbe wait(traits_.wait_probe);
      bool leader = false;
      uint64_t round = 0;
      {
        std::lock_guard<vprof::Mutex> lock(mu_);
        if (flushed_lsn() >= lsn) {
          return Status::kOk;
        }
        leader = !flush_in_progress_;
        flush_in_progress_ = true;
        round = flush_round_;
      }
      if (!leader) {
        // The event for this round stays set from its completion until
        // round+1 completes, so a follower that runs late still sees it.
        waiters_.fetch_add(1, std::memory_order_relaxed);
        stat_commit_waits_.fetch_add(1, std::memory_order_relaxed);
        flush_events_[round & 1].WaitFor(kFollowerWaitNs);
        waiters_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
    }
    const Status status = WriteBatch(/*do_fsync=*/true, /*background=*/false);
    {
      // Finish the round whatever the outcome: reset the next round's event
      // before signalling this one, so a follower that enlists in round R+1
      // starts with a clean event.
      std::lock_guard<vprof::Mutex> lock(mu_);
      flush_in_progress_ = false;
      const uint64_t done = flush_round_++;
      flush_events_[(done + 1) & 1].Reset();
      flush_events_[done & 1].Set();
    }
    if (status != Status::kOk) {
      return status;
    }
  }
  return Status::kOk;
}

void CommitLog::CommitPipelined(uint64_t lsn, Completion done) {
  if (mode_ == CommitMode::kExclusive) {
    done(CommitUpTo(lsn));
    return;
  }
  Status refused = Status::kOk;
  {
    std::lock_guard<std::mutex> lock(pipe_mu_);
    refused = EntryStatus();
    if (refused == Status::kOk) {
      pipe_pending_.push_back(
          PendingCommit{lsn, incarnation_.load(std::memory_order_acquire),
                        vprof::HandOffInterval(), std::move(done)});
      if (pipe_leader_) {
        return;  // the active leader settles it
      }
      pipe_leader_ = true;
    }
  }
  if (refused != Status::kOk) {
    done(refused);
    return;
  }
  LeadPipelinedRounds();
}

void CommitLog::LeadPipelinedRounds() {
  std::vector<std::pair<PendingCommit, Status>> settled;
  while (true) {
    uint64_t target = 0;
    {
      std::lock_guard<std::mutex> lock(pipe_mu_);
      if (pipe_pending_.empty()) {
        pipe_leader_ = false;
        return;
      }
      for (const PendingCommit& pending : pipe_pending_) {
        target = std::max(target, pending.lsn);
      }
    }
    Status status = Status::kOk;
    {
      MaybeProbe round(traits_.round_probe);
      status = GroupCommitUpTo(target);
    }
    // Settle what the round decided: every LSN now durable with kOk, and on
    // a failure every LSN up to the round's with its status. The flushed
    // LSN is read before the incarnation, and Recover bumps the incarnation
    // before it moves the flushed LSN, so a commit of this incarnation at
    // or below `durable` is on the device.
    const uint64_t durable = flushed_lsn();
    const uint64_t incarnation = incarnation_.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lock(pipe_mu_);
      std::vector<PendingCommit> kept;
      for (PendingCommit& pending : pipe_pending_) {
        if (pending.incarnation != incarnation) {
          settled.emplace_back(std::move(pending), Status::kCrashed);
        } else if (pending.lsn <= durable) {
          settled.emplace_back(std::move(pending), Status::kOk);
        } else if (status != Status::kOk && pending.lsn <= target) {
          settled.emplace_back(std::move(pending), status);
        } else {
          kept.push_back(std::move(pending));
        }
      }
      pipe_pending_.swap(kept);
    }
    // In LSN order, each on behalf of its registrant's interval. A
    // completion that ends that interval (its reply is sent) leaves this
    // thread on its own interval again.
    std::sort(settled.begin(), settled.end(),
              [](const auto& a, const auto& b) {
                return a.first.lsn < b.first.lsn;
              });
    for (auto& [commit, outcome] : settled) {
      vprof::ResumedInterval on_behalf(commit.handoff);
      commit.done(outcome);
    }
    settled.clear();
  }
}

Status CommitLog::ExclusiveCommitUpTo(uint64_t lsn) {
  // One write+fsync per commit, even when another's flush already covered
  // `lsn`: the prepare_commit_mutex regime.
  do {
    if (const Status status = Refusal(lsn); status != Status::kOk) {
      return status;
    }
    std::unique_lock<std::mutex> lock(write_mu_, std::defer_lock);
    {
      MaybeProbe wait(traits_.wait_probe);
      if (!lock.try_lock()) {
        waiters_.fetch_add(1, std::memory_order_relaxed);
        stat_commit_waits_.fetch_add(1, std::memory_order_relaxed);
        lock.lock();
        waiters_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    const Status status =
        WriteBatchLocked(/*do_fsync=*/true, /*background=*/false);
    if (status != Status::kOk) {
      return status;
    }
  } while (flushed_lsn() < lsn);
  return Status::kOk;
}

Status CommitLog::WriteBatch(bool do_fsync, bool background) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return WriteBatchLocked(do_fsync, background);
}

size_t CommitLog::AppendBatchToDevice(const std::vector<Record>& batch,
                                      size_t first, uint64_t intact_bytes) {
  // Records wholly within the transferred prefix land intact; the record
  // crossing the tear point lands with a bad checksum; anything beyond it
  // never reached the device.
  uint64_t offset = 0;
  size_t whole = 0;
  for (size_t i = first; i < batch.size(); ++i) {
    const Record& rec = batch[i];
    if (offset + rec.bytes <= intact_bytes) {
      device_records_.push_back(rec);
      ++whole;
    } else if (offset < intact_bytes) {
      device_records_.push_back(rec);
      device_records_.back().checksum ^= kTornChecksumMask;
      break;
    } else {
      break;
    }
    offset += rec.bytes;
  }
  return whole;
}

void CommitLog::RestoreToBuffer(const std::vector<Record>& batch,
                                size_t first) {
  std::lock_guard<std::mutex> lock(buffer_mu_);
  buffer_records_.insert(buffer_records_.begin(),
                         batch.begin() + static_cast<std::ptrdiff_t>(first),
                         batch.end());
}

Status CommitLog::WriteBatchLocked(bool do_fsync, bool background) {
  if (const Status health = Health(); health != Status::kOk) {
    return health;
  }
  std::vector<Record> batch;
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    batch.swap(buffer_records_);
  }
  const uint64_t batch_end =
      batch.empty() ? written_lsn() : batch.back().end_lsn;
  const uint64_t crash_seed = crash_seed_.load(std::memory_order_relaxed);

  if (Fires("/crash_before_write")) [[unlikely]] {
    RestoreToBuffer(batch, 0);  // dies in the buffer; the crash counts it
    CrashLocked(crash_seed);
    return Status::kCrashed;
  }
  {
    MaybeProbe write(traits_.write_probe);
    // One pass per device write. A short write lands the records before
    // the tear whole; the next pass rewrites the torn record whole, in
    // place, then the rest.
    size_t landed = 0;  // records of `batch` whole on the device
    do {
      uint64_t bytes = 0;
      for (size_t i = landed; i < batch.size(); ++i) {
        bytes += batch[i].bytes;
      }
      size_t whole = 0;
      if (bytes > 0) {
        const uint64_t blocks =
            (bytes + traits_.block_bytes - 1) / traits_.block_bytes;
        const simio::IoResult w = disk_->Write(blocks * traits_.block_bytes);
        if (!w.ok()) {
          // Nothing of this pass reached the device; the caller may retry.
          RestoreToBuffer(batch, landed);
          stat_io_errors_.fetch_add(1, std::memory_order_relaxed);
          return Status::kIoError;
        }
        // A mid-batch kill lands only a prefix of the batch: the trigger
        // value's bytes if it carries one, else what the write transferred.
        uint64_t mid = fault::Trigger::kNoValue;
        const bool mid_crash = Fires("/crash_mid_batch", &mid);
        whole = AppendBatchToDevice(
            batch, landed,
            std::min(mid_crash && mid != fault::Trigger::kNoValue ? mid
                                                                  : w.bytes,
                     bytes));
        if (mid_crash) [[unlikely]] {
          CrashLocked(crash_seed);
          return Status::kCrashed;
        }
        landed += whole;
      }
      if (landed > 0) {
        written_lsn_.store(batch[landed - 1].end_lsn,
                           std::memory_order_release);
      }
      if (Fires("/crash_after_write")) [[unlikely]] {
        CrashLocked(crash_seed);
        return Status::kCrashed;
      }
      if (landed < batch.size()) {
        // Short: the tear lies in batch[landed], the device image's last
        // record unless the write transferred nothing of it.
        if (device_records_.size() > durable_records_ &&
            device_records_.back().end_lsn == batch[landed].end_lsn) {
          device_records_.pop_back();
        }
        if (whole == 0) {
          // No progress: hand the rest back rather than spin on the device.
          RestoreToBuffer(batch, landed);
          stat_io_errors_.fetch_add(1, std::memory_order_relaxed);
          return Status::kIoError;
        }
      }
    } while (landed < batch.size());
    stat_batched_records_.fetch_add(batch.size(), std::memory_order_relaxed);
    if (!do_fsync) {
      return Status::kOk;
    }
    MaybeProbe fsync(traits_.fsync_probe);
    if (!disk_->Fsync().ok()) {
      // fsyncgate: the failed fsync dropped the device cache, taking the
      // whole unsynced window with it. Wedge the log: were it to stay open,
      // the next successful fsync would silently ack these records.
      crash_lost_records_ += device_records_.size() - durable_records_;
      device_records_.resize(durable_records_);
      wedged_.store(true, std::memory_order_release);
      stat_io_errors_.fetch_add(1, std::memory_order_relaxed);
      stat_wedges_.fetch_add(1, std::memory_order_relaxed);
      WakeAll();
      return Status::kWedged;
    }
  }
  durable_records_ = device_records_.size();
  flushed_lsn_.store(batch_end, std::memory_order_release);
  if (Fires("/crash_after_fsync")) [[unlikely]] {
    // The batch is already durable; the caller just never hears the ack.
    CrashLocked(crash_seed);
    return Status::kCrashed;
  }
  (background ? stat_background_flushes_ : stat_leader_flushes_)
      .fetch_add(1, std::memory_order_relaxed);
  return Status::kOk;
}

void CommitLog::Crash(uint64_t seed) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!crashed()) {
    CrashLocked(seed);
  }
}

void CommitLog::CrashLocked(uint64_t seed) {
  uint64_t lost = 0;
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    crashed_.store(true, std::memory_order_release);
    lost = buffer_records_.size();
    buffer_records_.clear();
  }
  // The written-but-unsynced tail survives only partially: a seeded-random
  // count of records made it intact, the next one may be torn mid-record,
  // the rest never left the device cache.
  const size_t at_risk = device_records_.size() - durable_records_;
  if (at_risk > 0) {
    statkit::Rng rng(seed);
    const uint64_t keep = rng.NextBelow(at_risk + 1);
    if (keep < at_risk) {
      // Tear to a definitively bad checksum, not an XOR toggle: the record
      // may already be torn by a short batch write, and toggling twice
      // would resurrect it.
      Record& torn = device_records_[durable_records_ + keep];
      torn.checksum =
          RecordChecksum(torn.end_lsn, torn.bytes) ^ kTornChecksumMask;
      lost += at_risk - keep - 1;
      device_records_.resize(durable_records_ + keep + 1);
    }
  }
  crash_lost_records_ += lost;
  stat_crashes_.fetch_add(1, std::memory_order_relaxed);
  WakeAll();
}

RecoveryResult CommitLog::Recover() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  RecoveryResult result;
  if (Health() == Status::kOk) {
    result.recovered_lsn = flushed_lsn();
    result.records_recovered = device_records_.size();
    return result;
  }
  // Before the flushed LSN moves: see LeadPipelinedRounds.
  incarnation_.fetch_add(1, std::memory_order_acq_rel);
  size_t good = 0;
  for (const Record& rec : device_records_) {
    if (rec.checksum != RecordChecksum(rec.end_lsn, rec.bytes)) {
      break;  // torn tail starts here
    }
    result.recovered_lsn = rec.end_lsn;
    ++good;
  }
  result.torn_truncated = device_records_.size() - good;
  result.records_recovered = good;
  result.records_lost = crash_lost_records_ + result.torn_truncated;
  device_records_.resize(good);
  durable_records_ = good;
  crash_lost_records_ = 0;
  // No committer gets past the entry checks while crashed or wedged, so the
  // events can be cleared before the log re-opens.
  flush_events_[0].Reset();
  flush_events_[1].Reset();
  {
    std::lock_guard<vprof::Mutex> lock(mu_);
    flush_in_progress_ = false;
  }
  std::lock_guard<std::mutex> lock(buffer_mu_);
  // A wedged (not crashed) log still holds never-committable appends in its
  // insert buffer; they die here.
  result.records_lost += buffer_records_.size();
  buffer_records_.clear();
  next_lsn_.store(result.recovered_lsn + 1, std::memory_order_release);
  written_lsn_.store(result.recovered_lsn, std::memory_order_release);
  flushed_lsn_.store(result.recovered_lsn, std::memory_order_release);
  wedged_.store(false, std::memory_order_release);
  crashed_.store(false, std::memory_order_release);
  return result;
}

void CommitLog::Shutdown() {
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // Every record appended before the gate went up becomes durable, so
  // followers already waiting get their ack instead of a spurious loss.
  WriteBatch(/*do_fsync=*/true, /*background=*/true);
  WakeAll();
}

void CommitLog::WakeAll() {
  flush_events_[0].Set();
  flush_events_[1].Set();
}

size_t CommitLog::device_record_count() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return device_records_.size();
}

size_t CommitLog::durable_record_count() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return durable_records_;
}

Stats CommitLog::stats() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  return Stats{.appends = stat_appends_.load(kRelaxed),
               .commit_waits = stat_commit_waits_.load(kRelaxed),
               .leader_flushes = stat_leader_flushes_.load(kRelaxed),
               .background_flushes = stat_background_flushes_.load(kRelaxed),
               .batched_records = stat_batched_records_.load(kRelaxed),
               .io_errors = stat_io_errors_.load(kRelaxed),
               .wedges = stat_wedges_.load(kRelaxed),
               .crashes = stat_crashes_.load(kRelaxed)};
}

}  // namespace commitlog
