// Durable compressed history store for per-epoch metric snapshots.
//
// StatStore persists one EpochSample per epoch into append-only segment
// files under a directory:
//
//   <dir>/seg-00000001.sst, seg-00000002.sst, ...
//
// Each segment starts with an 8-byte header (magic + version) followed by
// framed records: {u32 payload_len, u32 checksum, payload}, where payloads
// are the streaming compressed records of segment.h. A segment is sealed
// (fsync'd, never written again) once it crosses max_segment_bytes; the
// next Append rotates to a fresh segment whose first record is a key frame.
// Retention is by segment count: when max_segments is exceeded the oldest
// sealed segment is deleted, so the store's disk footprint is bounded.
//
// Crash recovery (Open): every segment is replayed front to back; the first
// record that is short, fails its checksum, or does not decode marks the
// torn tail, and the file is truncated back to the last good record. The
// recovered store then rotates to a new segment rather than resuming the
// torn one, so sealed history is immutable. The durability contract mirrors
// the redo log's: everything up to the last seal survives any crash, and of
// the unsealed tail an unbroken prefix of whole records survives — never a
// partial or corrupt sample.
//
// Fault injection (failpoints under options.fault_scope):
//   <scope>/write_error  Append fails without writing; the store stays usable
//   <scope>/torn_write   a seeded-random prefix of the frame reaches the
//                        file and the store wedges (crash simulation); a new
//                        StatStore over the same dir recovers
//   <scope>/stall        Append blocks an extra options.stall_us first
//
// Thread-safe; Append is intended for the vprofd harvester thread while
// Query/ListSeries serve concurrent readers.
#ifndef SRC_STATSTORE_STORE_H_
#define SRC_STATSTORE_STORE_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "src/statstore/segment.h"

namespace statstore {

struct StoreOptions {
  std::string dir;

  // Seal the open segment and rotate once it reaches this size. Smaller
  // segments bound the worst-case crash loss and the per-query replay cost;
  // larger ones amortize the key frame better.
  uint64_t max_segment_bytes = 256 * 1024;

  // Maximum number of segment files kept on disk; the oldest sealed
  // segments are deleted past it. 0 = unbounded.
  uint64_t max_segments = 0;

  // Failpoint namespace ("<scope>/write_error", "<scope>/torn_write",
  // "<scope>/stall", "<scope>/crash_on_roll" — the last kills the store at
  // a segment roll, after the old segment sealed but before the new one
  // exists; reopening recovers).
  std::string fault_scope = "statstore";

  // Extra latency of an injected <scope>/stall, and the seed for the
  // <scope>/torn_write prefix length.
  double stall_us = 20000.0;
  uint64_t torn_seed = 0x5EED5EEDull;
};

enum class AppendStatus : uint8_t {
  kOk,
  kIoError,   // injected or real write failure; the sample was not persisted
  kWedged,    // a previous torn write crashed the store; reopen to recover
  kBadEpoch,  // epoch not greater than the last persisted one
};

struct SeriesPoint {
  uint64_t epoch = 0;
  double value = 0.0;
};

struct StoreStats {
  uint64_t appends = 0;          // samples durably framed
  uint64_t append_errors = 0;    // failed appends (IO error / wedged)
  uint64_t segments_created = 0;
  uint64_t segments_sealed = 0;
  uint64_t segments_dropped = 0;  // retention deletions
  uint64_t bytes_written = 0;     // framing + payload, this process
  uint64_t values_dropped = 0;    // unencodable series names

  // Open()-time recovery results.
  uint64_t recovered_records = 0;
  uint64_t truncated_bytes = 0;    // torn-tail bytes removed
  uint64_t dropped_segments = 0;   // unreadable segments removed at open

  // Append wall latency (write path only), for the bounded-latency claim.
  uint64_t last_append_ns = 0;
  uint64_t max_append_ns = 0;
};

class StatStore {
 public:
  explicit StatStore(const StoreOptions& options);
  ~StatStore();

  StatStore(const StatStore&) = delete;
  StatStore& operator=(const StatStore&) = delete;

  // Creates the directory if needed, replays existing segments (verifying
  // checksums and truncating torn tails), and readies the store for
  // appends. Returns false only if the directory cannot be created or
  // listed; a damaged store recovers rather than failing.
  bool Open();

  // Persists one epoch's sample. Epochs must be strictly increasing.
  AppendStatus Append(const EpochSample& sample);

  // Seals the open segment (fsync) so everything appended so far is
  // crash-durable. The next Append starts a new segment.
  void Seal();

  // Decoded values of `series` for epochs in [min_epoch, max_epoch],
  // ascending, bit-exact as appended. Replays segment files; cost is
  // proportional to the store bytes overlapping the range.
  std::vector<SeriesPoint> Query(const std::string& series, uint64_t min_epoch,
                                 uint64_t max_epoch) const;

  // Union of series names across all segments, sorted.
  std::vector<std::string> ListSeries() const;

  // Epoch coverage: [first_epoch, last_epoch] over all records, 0/0 when
  // empty.
  uint64_t first_epoch() const;
  uint64_t last_epoch() const;
  uint64_t record_count() const;
  uint64_t segment_count() const;

  // Total segment bytes on disk (compressed size, for the bench).
  uint64_t disk_bytes() const;

  bool wedged() const;

  StoreStats stats() const;

  const StoreOptions& options() const { return options_; }

 private:
  struct SegmentInfo {
    std::string path;
    uint64_t first_epoch = 0;
    uint64_t last_epoch = 0;
    uint64_t records = 0;
    uint64_t bytes = 0;  // current file size
  };

  // Replays `path`, truncating its torn tail. Returns false if the segment
  // held no intact records (the file is deleted). Requires mu_ held.
  bool RecoverSegment(const std::string& path, SegmentInfo* info);
  // Opens a fresh segment file for appending. Requires mu_ held.
  bool RotateLocked();
  // Seals the open segment: flush, optional fsync, close. Requires mu_ held.
  void SealLocked();
  // Deletes oldest segments past options_.max_segments. Requires mu_ held.
  void EnforceRetentionLocked();

  const StoreOptions options_;
  const std::string fp_write_error_;
  const std::string fp_torn_write_;
  const std::string fp_stall_;
  const std::string fp_crash_on_roll_;

  mutable std::mutex mu_;
  std::vector<SegmentInfo> segments_;  // ascending by file name; last = open
  uint64_t next_segment_index_ = 1;
  std::FILE* open_file_ = nullptr;     // null when no open segment
  SegmentEncoder encoder_;             // codec state of the open segment
  bool wedged_ = false;
  StoreStats stats_;
};

}  // namespace statstore

#endif  // SRC_STATSTORE_STORE_H_
