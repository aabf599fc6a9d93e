#include "src/statstore/store.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <set>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "src/fault/failpoint.h"
#include "src/simio/disk.h"
#include "src/statkit/rng.h"

namespace statstore {

namespace {

constexpr uint32_t kSegmentMagic = 0x31545353u;  // "SST1" little-endian
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kHeaderBytes = 8;
constexpr size_t kFrameHeaderBytes = 8;  // u32 len + u32 checksum
constexpr uint32_t kMaxPayloadBytes = 64u << 20;

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string SegmentPath(const std::string& dir, uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08" PRIu64 ".sst", index);
  return dir + "/" + name;
}

// Parses the index out of "seg-NNNNNNNN.sst"; 0 if the name doesn't match.
uint64_t SegmentIndex(const std::string& filename) {
  uint64_t index = 0;
  char tail[8] = {0};
  if (std::sscanf(filename.c_str(), "seg-%8" SCNu64 ".ss%1s", &index, tail) ==
          2 &&
      tail[0] == 't' && tail[1] == '\0') {
    return index;
  }
  return 0;
}

// Replays the framed records of one segment file, calling `fn` for each
// decoded sample, reading at most `max_bytes` of the file. Returns the byte
// offset one past the last intact record (>= kHeaderBytes), or 0 if the
// header itself is unreadable.
template <typename Fn>
uint64_t ReplaySegment(const std::string& path, uint64_t max_bytes, Fn&& fn) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  uint32_t magic = 0, version = 0;
  if (max_bytes < kHeaderBytes ||
      std::fread(&magic, sizeof(magic), 1, f) != 1 ||
      std::fread(&version, sizeof(version), 1, f) != 1 ||
      magic != kSegmentMagic || version != kSegmentVersion) {
    std::fclose(f);
    return 0;
  }
  uint64_t good = kHeaderBytes;
  SegmentDecoder decoder;
  std::vector<uint8_t> payload;
  EpochSample sample;
  while (true) {
    uint32_t len = 0, checksum = 0;
    if (good + kFrameHeaderBytes > max_bytes ||
        std::fread(&len, sizeof(len), 1, f) != 1 ||
        std::fread(&checksum, sizeof(checksum), 1, f) != 1) {
      break;
    }
    if (len == 0 || len > kMaxPayloadBytes ||
        good + kFrameHeaderBytes + len > max_bytes) {
      break;
    }
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, f) != len) break;
    if (RecordChecksum(payload.data(), len) != checksum) break;
    if (!decoder.DecodeRecord(payload.data(), len, &sample)) break;
    good += kFrameHeaderBytes + len;
    fn(sample, decoder);
  }
  std::fclose(f);
  return good;
}

}  // namespace

StatStore::StatStore(const StoreOptions& options)
    : options_(options),
      fp_write_error_(options.fault_scope + "/write_error"),
      fp_torn_write_(options.fault_scope + "/torn_write"),
      fp_stall_(options.fault_scope + "/stall"),
      fp_crash_on_roll_(options.fault_scope + "/crash_on_roll") {}

StatStore::~StatStore() {
  std::lock_guard<std::mutex> lock(mu_);
  SealLocked();
}

bool StatStore::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) return false;

  // Collect segment files in index order; sets are sorted, and the
  // zero-padded names sort like their indices.
  std::set<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (SegmentIndex(name) != 0) names.insert(name);
  }
  if (ec) return false;

  segments_.clear();
  for (const std::string& name : names) {
    SegmentInfo info;
    info.path = options_.dir + "/" + name;
    next_segment_index_ = std::max(next_segment_index_, SegmentIndex(name) + 1);
    if (RecoverSegment(info.path, &info)) {
      segments_.push_back(std::move(info));
    }
  }
  // Recovered segments are all treated as sealed: the next Append rotates to
  // a fresh segment, so history written before a crash is never mutated.
  return true;
}

bool StatStore::RecoverSegment(const std::string& path, SegmentInfo* info) {
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) return false;
  uint64_t records = 0;
  uint64_t first = 0, last = 0;
  const uint64_t good =
      ReplaySegment(path, size, [&](const EpochSample& sample,
                                    const SegmentDecoder&) {
        if (records == 0) first = sample.epoch;
        last = sample.epoch;
        ++records;
      });
  if (records == 0) {
    // No intact record (bad header, empty, or torn first record): the file
    // holds nothing recoverable.
    std::filesystem::remove(path, ec);
    ++stats_.dropped_segments;
    stats_.truncated_bytes += size;
    return false;
  }
  if (good < size) {
    std::filesystem::resize_file(path, good, ec);
    stats_.truncated_bytes += size - good;
  }
  stats_.recovered_records += records;
  info->first_epoch = first;
  info->last_epoch = last;
  info->records = records;
  info->bytes = good;
  return true;
}

bool StatStore::RotateLocked() {
  SealLocked();
  // Chaos crash point: die at the segment roll, after the old segment
  // sealed but before the new one exists. Reopening the store recovers
  // exactly the sealed history.
  if (fault::Triggered(fp_crash_on_roll_)) [[unlikely]] {
    wedged_ = true;
    return false;
  }
  const std::string path = SegmentPath(options_.dir, next_segment_index_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  if (std::fwrite(&kSegmentMagic, sizeof(kSegmentMagic), 1, f) != 1 ||
      std::fwrite(&kSegmentVersion, sizeof(kSegmentVersion), 1, f) != 1) {
    std::fclose(f);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return false;
  }
  ++next_segment_index_;
  open_file_ = f;
  encoder_ = SegmentEncoder();
  SegmentInfo info;
  info.path = path;
  info.bytes = kHeaderBytes;
  segments_.push_back(std::move(info));
  ++stats_.segments_created;
  stats_.bytes_written += kHeaderBytes;
  EnforceRetentionLocked();
  return true;
}

void StatStore::SealLocked() {
  if (open_file_ == nullptr) return;
  bool seal_failed = std::fflush(open_file_) != 0;
#ifndef _WIN32
  // fsync on seal makes sealed segments crash-durable (the unsealed tail is
  // buffered-write durable only, like the lazy redo-log policies).
  if (!seal_failed) {
    seal_failed = ::fsync(::fileno(open_file_)) != 0;
  }
#endif
  std::fclose(open_file_);
  open_file_ = nullptr;
  if (seal_failed) {
    // fsyncgate audit: a failed flush/fsync means an unknown suffix of the
    // segment never reached the device, and retrying cannot recover it.
    // Wedge until reopen — recovery truncates at the first bad frame.
    wedged_ = true;
    ++stats_.append_errors;
    return;
  }
  ++stats_.segments_sealed;
}

void StatStore::EnforceRetentionLocked() {
  if (options_.max_segments == 0) return;
  while (segments_.size() > options_.max_segments) {
    // The front segment is always sealed here: the open segment is the
    // back, and max_segments >= 1.
    std::error_code ec;
    std::filesystem::remove(segments_.front().path, ec);
    segments_.erase(segments_.begin());
    ++stats_.segments_dropped;
  }
}

AppendStatus StatStore::Append(const EpochSample& sample) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t begin_ns = WallNs();
  if (wedged_) {
    ++stats_.append_errors;
    return AppendStatus::kWedged;
  }
  if (!segments_.empty() && segments_.back().records > 0 &&
      sample.epoch <= segments_.back().last_epoch) {
    ++stats_.append_errors;
    return AppendStatus::kBadEpoch;
  }
  if (fault::Triggered(fp_stall_)) {
    simio::SleepUs(options_.stall_us);
  }
  if (fault::Triggered(fp_write_error_)) {
    ++stats_.append_errors;
    return AppendStatus::kIoError;
  }
  if (open_file_ == nullptr && !RotateLocked()) {
    ++stats_.append_errors;
    return AppendStatus::kIoError;
  }

  for (const SeriesValue& sv : sample.values) {
    if (sv.series.size() > kMaxSeriesNameBytes) ++stats_.values_dropped;
  }
  const std::vector<uint8_t> payload = encoder_.EncodeRecord(sample);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t checksum = RecordChecksum(payload.data(), payload.size());
  std::vector<uint8_t> frame(kFrameHeaderBytes + payload.size());
  std::memcpy(frame.data(), &len, sizeof(len));
  std::memcpy(frame.data() + sizeof(len), &checksum, sizeof(checksum));
  std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
              payload.size());

  if (fault::Triggered(fp_torn_write_)) {
    // Crash simulation: a seeded-random prefix of the frame reaches the
    // file, then the store wedges. Recovery truncates the torn record.
    statkit::Rng rng(options_.torn_seed + stats_.appends);
    const size_t keep = rng.Next() % frame.size();
    std::fwrite(frame.data(), 1, keep, open_file_);
    std::fflush(open_file_);
    wedged_ = true;
    ++stats_.append_errors;
    return AppendStatus::kIoError;
  }
  if (std::fwrite(frame.data(), 1, frame.size(), open_file_) !=
      frame.size()) {
    // A real short write leaves an unknown tail; wedge like a torn write so
    // no further record lands after garbage.
    wedged_ = true;
    ++stats_.append_errors;
    return AppendStatus::kIoError;
  }

  SegmentInfo& info = segments_.back();
  if (info.records == 0) info.first_epoch = sample.epoch;
  info.last_epoch = sample.epoch;
  ++info.records;
  info.bytes += frame.size();
  ++stats_.appends;
  stats_.bytes_written += frame.size();

  if (info.bytes >= options_.max_segment_bytes) {
    SealLocked();
  }
  const uint64_t elapsed = WallNs() - begin_ns;
  stats_.last_append_ns = elapsed;
  stats_.max_append_ns = std::max(stats_.max_append_ns, elapsed);
  return AppendStatus::kOk;
}

void StatStore::Seal() {
  std::lock_guard<std::mutex> lock(mu_);
  SealLocked();
}

std::vector<SeriesPoint> StatStore::Query(const std::string& series,
                                          uint64_t min_epoch,
                                          uint64_t max_epoch) const {
  // Snapshot the segment list (paths + stable byte counts) under the lock,
  // flushing the open segment so its buffered records are visible, then
  // replay files unlocked so long queries don't block the append path.
  std::vector<SegmentInfo> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (open_file_ != nullptr) std::fflush(open_file_);
    snapshot = segments_;
  }
  std::vector<SeriesPoint> out;
  for (const SegmentInfo& info : snapshot) {
    if (info.records == 0 || info.last_epoch < min_epoch ||
        info.first_epoch > max_epoch) {
      continue;
    }
    ReplaySegment(info.path, info.bytes,
                  [&](const EpochSample& sample, const SegmentDecoder&) {
                    if (sample.epoch < min_epoch || sample.epoch > max_epoch) {
                      return;
                    }
                    for (const SeriesValue& sv : sample.values) {
                      if (sv.series == series) {
                        out.push_back(SeriesPoint{sample.epoch, sv.value});
                        break;
                      }
                    }
                  });
  }
  return out;
}

std::vector<std::string> StatStore::ListSeries() const {
  std::vector<SegmentInfo> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (open_file_ != nullptr) std::fflush(open_file_);
    snapshot = segments_;
  }
  std::set<std::string> names;
  for (const SegmentInfo& info : snapshot) {
    ReplaySegment(info.path, info.bytes,
                  [&names](const EpochSample&, const SegmentDecoder& decoder) {
                    for (const std::string& name : decoder.series_names()) {
                      names.insert(name);
                    }
                  });
  }
  return std::vector<std::string>(names.begin(), names.end());
}

uint64_t StatStore::first_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SegmentInfo& info : segments_) {
    if (info.records > 0) return info.first_epoch;
  }
  return 0;
}

uint64_t StatStore::last_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (it->records > 0) return it->last_epoch;
  }
  return 0;
}

uint64_t StatStore::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const SegmentInfo& info : segments_) total += info.records;
  return total;
}

uint64_t StatStore::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

uint64_t StatStore::disk_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const SegmentInfo& info : segments_) total += info.bytes;
  return total;
}

bool StatStore::wedged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wedged_;
}

StoreStats StatStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace statstore
