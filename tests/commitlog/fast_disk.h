// The simulated log disk the commit-log tests run on: microsecond-scale
// service, no fsync spikes, injected errors that fail at once, and
// failpoints under "<scope>/..." (write_error, fsync_error, torn_write,
// stall).
#ifndef TESTS_COMMITLOG_FAST_DISK_H_
#define TESTS_COMMITLOG_FAST_DISK_H_

#include <string>

#include "src/simio/disk.h"

inline simio::DiskConfig FastDisk(const std::string& scope) {
  simio::DiskConfig config;
  config.read_mu = 0.1;
  config.write_mu = 0.1;
  config.fsync_mu = 0.1;
  config.fsync_spike_prob = 0.0;
  config.error_latency_us = 1.0;
  config.fault_scope = scope;
  config.seed = 11;
  return config;
}

#endif  // TESTS_COMMITLOG_FAST_DISK_H_
