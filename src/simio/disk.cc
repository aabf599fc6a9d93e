#include "src/simio/disk.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/fault/failpoint.h"
#include "src/statkit/distributions.h"

namespace simio {

void SleepUs(double us) {
  if (us <= 0.0) {
    return;
  }
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<int64_t>(us * 1000.0)));
}

Disk::Disk(const DiskConfig& config)
    : config_(config),
      fp_read_error_(config.fault_scope + "/read_error"),
      fp_write_error_(config.fault_scope + "/write_error"),
      fp_fsync_error_(config.fault_scope + "/fsync_error"),
      fp_torn_write_(config.fault_scope + "/torn_write"),
      fp_stall_(config.fault_scope + "/stall"),
      rng_(config.seed) {}

double Disk::SampleServiceUs(double mu, double sigma, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(rng_mu_);
  const double base = statkit::SampleLognormal(rng_, mu, sigma);
  const double transfer = static_cast<double>(bytes) / config_.bytes_per_us;
  return base + transfer;
}

void Disk::Service(double service_us) {
  if (config_.serialize_access) {
    std::lock_guard<std::mutex> lock(device_mu_);
    SleepUs(service_us);
  } else {
    SleepUs(service_us);
  }
}

IoResult Disk::Fail(double service_us) {
  Service(service_us);
  return IoResult{IoStatus::kError, 0, service_us};
}

double Disk::StallUs() {
  if (fault::Triggered(fp_stall_)) [[unlikely]] {
    stalls_.fetch_add(1, std::memory_order_relaxed);
    return config_.stall_us;
  }
  return 0.0;
}

IoResult Disk::Read(uint64_t bytes) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  const double stall = StallUs();
  if (fault::Triggered(fp_read_error_)) [[unlikely]] {
    read_errors_.fetch_add(1, std::memory_order_relaxed);
    return Fail(config_.error_latency_us + stall);
  }
  const double service =
      SampleServiceUs(config_.read_mu, config_.read_sigma, bytes) + stall;
  Service(service);
  return IoResult{IoStatus::kOk, bytes, service};
}

IoResult Disk::Write(uint64_t bytes) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  const double stall = StallUs();
  if (fault::Triggered(fp_write_error_)) [[unlikely]] {
    write_errors_.fetch_add(1, std::memory_order_relaxed);
    return Fail(config_.error_latency_us + stall);
  }
  uint64_t transferred = bytes;
  uint64_t torn_at = fault::Trigger::kNoValue;
  if (bytes > 0 && fault::TriggeredValue(fp_torn_write_, &torn_at)) [[unlikely]] {
    if (torn_at != fault::Trigger::kNoValue) {
      // The arming test chose the exact tear offset (byte-offset sweeps).
      transferred = std::min(torn_at, bytes);
    } else {
      // The device accepted only a prefix; which prefix is seed-deterministic.
      std::lock_guard<std::mutex> lock(rng_mu_);
      transferred = rng_.NextBelow(bytes);
    }
    torn_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  buffered_bytes_.fetch_add(transferred, std::memory_order_relaxed);
  const double service =
      SampleServiceUs(config_.write_mu, config_.write_sigma, transferred) +
      stall;
  Service(service);
  return IoResult{IoStatus::kOk, transferred, service};
}

IoResult Disk::Fsync() {
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  const double stall = StallUs();
  if (fault::Triggered(fp_fsync_error_)) [[unlikely]] {
    // fsyncgate semantics: the failed flush drops the dirty buffer. Nothing
    // reached stable storage and nothing ever will — a later fsync covers
    // only writes issued after this point.
    buffered_bytes_.store(0, std::memory_order_relaxed);
    fsync_errors_.fetch_add(1, std::memory_order_relaxed);
    return Fail(config_.error_latency_us + stall);
  }
  double service = SampleServiceUs(config_.fsync_mu, config_.fsync_sigma, 0);
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    if (rng_.NextBool(config_.fsync_spike_prob)) {
      service *= config_.fsync_spike_scale;
    }
  }
  const uint64_t flushed = buffered_bytes_.exchange(0, std::memory_order_relaxed);
  Service(service + stall);
  return IoResult{IoStatus::kOk, flushed, service + stall};
}

DiskFaultStats Disk::fault_stats() const {
  DiskFaultStats stats;
  stats.read_errors = read_errors_.load(std::memory_order_relaxed);
  stats.write_errors = write_errors_.load(std::memory_order_relaxed);
  stats.fsync_errors = fsync_errors_.load(std::memory_order_relaxed);
  stats.torn_writes = torn_writes_.load(std::memory_order_relaxed);
  stats.stalls = stalls_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace simio
