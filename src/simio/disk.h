// Simulated storage device.
//
// The paper's case studies run against physical disks whose service-time
// variance (especially fsync) is one of the latency-variance sources VProfiler
// surfaces (MySQL fil_flush, Postgres WAL flush). This module substitutes a
// disk model: lognormal per-op service time, bandwidth-proportional transfer
// time, occasional fsync stalls (write-cache flushes), and optional
// single-spindle serialization so concurrent requests queue behind each other.
//
// Fault injection: every operation consults the failpoint registry under the
// device's `fault_scope` namespace (src/fault/failpoint.h):
//
//   <scope>/read_error    Read fails after error_latency_us
//   <scope>/write_error   Write fails after error_latency_us
//   <scope>/fsync_error   Fsync fails after error_latency_us; the dirty
//                         write buffer is DROPPED (fsyncgate: the kernel
//                         marks pages clean on a failed fsync, so the
//                         unsynced window is simply gone — retrying the
//                         fsync cannot resurrect it)
//   <scope>/torn_write    Write transfers only a seeded-random prefix of the
//                         requested bytes (reported in IoResult::bytes)
//   <scope>/stall         the operation takes an extra stall_us (device
//                         write-cache flush / firmware pause / link reset)
//
// With no failpoint armed the fault checks cost one relaxed atomic load.
#ifndef SRC_SIMIO_DISK_H_
#define SRC_SIMIO_DISK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/statkit/rng.h"

namespace simio {

struct DiskConfig {
  // Lognormal parameters of the base service time, in microseconds.
  double read_mu = 4.0;     // exp(4.0) ~ 55us median
  double read_sigma = 0.35;
  double write_mu = 3.7;    // ~40us median (buffered write)
  double write_sigma = 0.3;
  double fsync_mu = 5.3;    // ~200us median
  double fsync_sigma = 0.45;

  // With probability spike_prob an fsync takes spike_scale times longer
  // (models periodic device write-cache flushes / FTL garbage collection).
  double fsync_spike_prob = 0.03;
  double fsync_spike_scale = 6.0;

  // Transfer bandwidth for the size-dependent component.
  double bytes_per_us = 400.0;  // ~400 MB/s

  // When true, operations serialize on the device (one spindle): concurrent
  // callers queue, which is itself a variance source.
  bool serialize_access = true;

  uint64_t seed = 42;

  // Failpoint namespace for this device ("<scope>/read_error", ...), so a
  // test can fault one disk (the log device) without touching the others.
  std::string fault_scope = "disk";

  // Service time of an operation failed by an injected error: real devices
  // surface I/O errors only after internal retries and timeouts.
  double error_latency_us = 300.0;

  // Duration of an injected <scope>/stall fault.
  double stall_us = 20000.0;
};

enum class IoStatus : uint8_t {
  kOk,
  kError,
};

// Outcome of one disk operation. `bytes` is the count actually transferred —
// short of the request on a torn write. `service_us` is the service time the
// operation sampled (stall and error latency included): the time it asked
// the device model to take, whatever the host's scheduler added on top.
struct IoResult {
  IoStatus status = IoStatus::kOk;
  uint64_t bytes = 0;
  double service_us = 0.0;

  bool ok() const { return status == IoStatus::kOk; }
};

// Per-device fault counters (all injected events observed so far).
struct DiskFaultStats {
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t fsync_errors = 0;
  uint64_t torn_writes = 0;
  uint64_t stalls = 0;
};

// Thread-safe simulated disk. Each operation blocks the calling thread for
// the sampled service duration.
class Disk {
 public:
  explicit Disk(const DiskConfig& config = DiskConfig{});

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Reads `bytes`; blocks for the sampled service time.
  IoResult Read(uint64_t bytes);

  // Writes `bytes` into the (simulated) device write buffer. A torn-write
  // fault transfers only IoResult::bytes of them.
  IoResult Write(uint64_t bytes);

  // Forces buffered writes to stable storage; the slow, high-variance op.
  // On success the write buffer is clean. On an injected error the buffer
  // is dropped, not kept dirty: like Linux after fsyncgate, a failed fsync
  // means the unsynced window is lost and a later successful fsync says
  // nothing about it — the caller must re-write from its own copy.
  IoResult Fsync();

  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }

  // Bytes written since the last successful fsync.
  uint64_t buffered_bytes() const {
    return buffered_bytes_.load(std::memory_order_relaxed);
  }

  DiskFaultStats fault_stats() const;

  const DiskConfig& config() const { return config_; }

 private:
  // Samples a lognormal service time (microseconds) plus transfer time.
  double SampleServiceUs(double mu, double sigma, uint64_t bytes);
  void Service(double service_us);
  // Serves an injected error's latency and returns the failed result.
  IoResult Fail(double service_us);
  // Injected-stall check shared by all ops; returns the extra microseconds.
  double StallUs();

  DiskConfig config_;
  // Failpoint names, precomputed so the armed path does no string assembly.
  const std::string fp_read_error_;
  const std::string fp_write_error_;
  const std::string fp_fsync_error_;
  const std::string fp_torn_write_;
  const std::string fp_stall_;

  std::mutex rng_mu_;
  statkit::Rng rng_;
  std::mutex device_mu_;  // held for the service duration when serializing
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> buffered_bytes_{0};
  std::atomic<uint64_t> read_errors_{0};
  std::atomic<uint64_t> write_errors_{0};
  std::atomic<uint64_t> fsync_errors_{0};
  std::atomic<uint64_t> torn_writes_{0};
  std::atomic<uint64_t> stalls_{0};
};

// Blocks the calling thread for approximately `us` microseconds.
void SleepUs(double us);

}  // namespace simio

#endif  // SRC_SIMIO_DISK_H_
