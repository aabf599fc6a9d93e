#include "src/vprof/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>

#include "src/vprof/analysis/pool.h"
#include "src/vprof/registry.h"

namespace vprof {

uint64_t Trace::invocation_count() const {
  uint64_t n = 0;
  for (const ThreadTrace& t : threads) {
    n += t.invocations.size();
  }
  return n;
}

uint64_t Trace::segment_count() const {
  uint64_t n = 0;
  for (const ThreadTrace& t : threads) {
    n += t.segments.size();
  }
  return n;
}

uint64_t Trace::dropped_record_count() const {
  uint64_t n = 0;
  for (const ThreadTrace& t : threads) {
    n += t.dropped_records;
  }
  return n;
}

uint64_t Trace::interval_count() const {
  uint64_t n = 0;
  for (const ThreadTrace& t : threads) {
    for (const IntervalEvent& e : t.interval_events) {
      if (e.kind == IntervalEventKind::kEnd) {
        ++n;
      }
    }
  }
  return n;
}

namespace {

constexpr uint32_t kMagic = 0x56505246;  // "VPRF"
constexpr uint32_t kVersion = 2;         // v2: IntervalEvent carries a label

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* data, size_t size) {
  return std::fwrite(data, 1, size, f) == size;
}

bool ReadBytes(std::FILE* f, void* data, size_t size) {
  return std::fread(data, 1, size, f) == size;
}

template <typename T>
bool WritePod(std::FILE* f, const T& value) {
  return WriteBytes(f, &value, sizeof(T));
}

template <typename T>
bool ReadPod(std::FILE* f, T* value) {
  return ReadBytes(f, value, sizeof(T));
}

bool WriteString(std::FILE* f, const std::string& s) {
  const uint64_t size = s.size();
  return WritePod(f, size) && WriteBytes(f, s.data(), s.size());
}

// Records are stored in the in-memory struct layout LoadTrace reads back,
// but encoded field by field into a zero-filled buffer: written raw, the
// structs' padding bytes would carry whatever their storage held into the
// file, so equal traces could save to different bytes.
template <typename Field>
void Put(char* record, size_t offset, const Field& value) {
  std::memcpy(record + offset, &value, sizeof(value));
}

void Encode(const Invocation& inv, char* out) {
  Put(out, offsetof(Invocation, start), inv.start);
  Put(out, offsetof(Invocation, end), inv.end);
  Put(out, offsetof(Invocation, func), inv.func);
  Put(out, offsetof(Invocation, parent), inv.parent);
  Put(out, offsetof(Invocation, sid), inv.sid);
}

void Encode(const Segment& seg, char* out) {
  Put(out, offsetof(Segment, start), seg.start);
  Put(out, offsetof(Segment, end), seg.end);
  Put(out, offsetof(Segment, sid), seg.sid);
  Put(out, offsetof(Segment, state), seg.state);
  Put(out, offsetof(Segment, waker_tid), seg.waker_tid);
  Put(out, offsetof(Segment, waker_time), seg.waker_time);
  Put(out, offsetof(Segment, generator_tid), seg.generator_tid);
  Put(out, offsetof(Segment, generator_time), seg.generator_time);
}

void Encode(const IntervalEvent& e, char* out) {
  Put(out, offsetof(IntervalEvent, sid), e.sid);
  Put(out, offsetof(IntervalEvent, time), e.time);
  Put(out, offsetof(IntervalEvent, kind), e.kind);
  Put(out, offsetof(IntervalEvent, label), e.label);
}

template <typename T>
bool WriteRecords(std::FILE* f, const std::vector<T>& records) {
  const uint64_t size = records.size();
  if (!WritePod(f, size)) {
    return false;
  }
  constexpr size_t kChunk = 1024;  // records encoded per write
  std::vector<char> buf(kChunk * sizeof(T));
  for (size_t first = 0; first < records.size(); first += kChunk) {
    const size_t n = std::min(kChunk, records.size() - first);
    std::fill(buf.begin(), buf.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      Encode(records[first + i], buf.data() + i * sizeof(T));
    }
    if (!WriteBytes(f, buf.data(), n * sizeof(T))) {
      return false;
    }
  }
  return true;
}

// Bytes left between the cursor and EOF; bounds every length-prefixed read
// so a corrupt size field cannot trigger a huge allocation.
uint64_t RemainingBytes(std::FILE* f, uint64_t file_size) {
  const long pos = std::ftell(f);
  if (pos < 0 || static_cast<uint64_t>(pos) > file_size) {
    return 0;
  }
  return file_size - static_cast<uint64_t>(pos);
}

TraceLoadStatus ReadStringChecked(std::FILE* f, uint64_t file_size,
                                  std::string* s) {
  uint64_t size = 0;
  if (!ReadPod(f, &size)) {
    return TraceLoadStatus::kTruncated;
  }
  if (size > (1ull << 20)) {
    return TraceLoadStatus::kCorrupt;
  }
  if (size > RemainingBytes(f, file_size)) {
    return TraceLoadStatus::kTruncated;
  }
  s->resize(size);
  return ReadBytes(f, s->data(), size) ? TraceLoadStatus::kOk
                                       : TraceLoadStatus::kTruncated;
}

// Where one record vector lies in the file.
struct Extent {
  uint64_t offset = 0;
  uint64_t count = 0;
};

// Reads one record vector's length, checks it against the bytes left, and
// skips over the records. The vector gets its storage here, on the calling
// thread: the pool block that fills it would otherwise allocate it from
// that worker's malloc arena, which keeps the memory after the trace is
// freed.
template <typename T>
TraceLoadStatus SkipVectorChecked(std::FILE* f, uint64_t file_size,
                                  std::vector<T>* v, Extent* extent) {
  uint64_t size = 0;
  if (!ReadPod(f, &size)) {
    return TraceLoadStatus::kTruncated;
  }
  if (size > (1ull << 32)) {
    return TraceLoadStatus::kCorrupt;
  }
  const uint64_t bytes = size * sizeof(T);
  if (bytes > RemainingBytes(f, file_size)) {
    return TraceLoadStatus::kTruncated;
  }
  extent->offset = static_cast<uint64_t>(std::ftell(f));
  extent->count = size;
  if (std::fseek(f, static_cast<long>(bytes), SEEK_CUR) != 0) {
    return TraceLoadStatus::kTruncated;
  }
  v->reserve(size);
  return TraceLoadStatus::kOk;
}

// Field-level validation of one record. Everything checked here is indexed
// or switched on by the analysis layer without further guards.
bool Valid(const Invocation& inv, size_t index, uint64_t name_count) {
  // Parents are earlier records on the same thread; a forward or self
  // reference would make the analysis chase a cycle.
  return inv.func != kInvalidFunc &&
         static_cast<uint64_t>(inv.func) < name_count && inv.parent >= -1 &&
         inv.parent < static_cast<int64_t>(index);
}

bool Valid(const Segment& seg, size_t, uint64_t) {
  return seg.state == SegmentState::kExecuting ||
         seg.state == SegmentState::kBlocked ||
         seg.state == SegmentState::kQueueWait;
}

bool Valid(const IntervalEvent& e, size_t, uint64_t) {
  return e.kind == IntervalEventKind::kBegin ||
         e.kind == IntervalEventKind::kEnd;
}

bool ReadAt(int fd, uint64_t offset, void* data, size_t size) {
  char* out = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::pread(fd, out, size, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    out += n;
    offset += static_cast<uint64_t>(n);
    size -= static_cast<size_t>(n);
  }
  return true;
}

// Fills a vector whose storage SkipVectorChecked reserved, and validates
// every record.
template <typename T>
TraceLoadStatus ReadRecords(int fd, const Extent& extent, uint64_t name_count,
                            std::vector<T>* v) {
  v->resize(extent.count);
  if (!ReadAt(fd, extent.offset, v->data(), v->size() * sizeof(T))) {
    return TraceLoadStatus::kTruncated;  // the file shrank under the reader
  }
  for (size_t i = 0; i < v->size(); ++i) {
    if (!Valid((*v)[i], i, name_count)) {
      return TraceLoadStatus::kCorrupt;
    }
  }
  return TraceLoadStatus::kOk;
}

TraceLoadStatus LoadTraceImpl(std::FILE* f, Trace* trace) {
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return TraceLoadStatus::kOpenFailed;
  }
  const long end = std::ftell(f);
  if (end < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    return TraceLoadStatus::kOpenFailed;
  }
  const uint64_t file_size = static_cast<uint64_t>(end);

  uint32_t magic = 0;
  uint32_t version = 0;
  if (!ReadPod(f, &magic)) {
    return TraceLoadStatus::kTruncated;
  }
  if (magic != kMagic) {
    return TraceLoadStatus::kBadMagic;
  }
  if (!ReadPod(f, &version)) {
    return TraceLoadStatus::kTruncated;
  }
  if (version != kVersion) {
    return TraceLoadStatus::kBadVersion;
  }
  if (!ReadPod(f, &trace->duration)) {
    return TraceLoadStatus::kTruncated;
  }

  uint64_t name_count = 0;
  if (!ReadPod(f, &name_count)) {
    return TraceLoadStatus::kTruncated;
  }
  if (name_count > kMaxFunctions) {
    return TraceLoadStatus::kCorrupt;
  }
  trace->function_names.resize(name_count);
  for (std::string& name : trace->function_names) {
    const TraceLoadStatus status = ReadStringChecked(f, file_size, &name);
    if (status != TraceLoadStatus::kOk) {
      return status;
    }
  }

  uint64_t thread_count = 0;
  if (!ReadPod(f, &thread_count)) {
    return TraceLoadStatus::kTruncated;
  }
  if (thread_count > (1u << 20)) {
    return TraceLoadStatus::kCorrupt;
  }
  // The layout pass: every length is checked against the bytes left, in
  // file order, before any record is read.
  constexpr size_t kVectorsPerThread = 3;
  constexpr uint64_t kMinThreadBytes =
      sizeof(ThreadId) + kVectorsPerThread * sizeof(uint64_t);
  if (thread_count > RemainingBytes(f, file_size) / kMinThreadBytes) {
    return TraceLoadStatus::kTruncated;
  }
  trace->threads.resize(thread_count);
  std::vector<Extent> extents(kVectorsPerThread * thread_count);
  for (size_t t = 0; t < thread_count; ++t) {
    ThreadTrace& thread = trace->threads[t];
    Extent* const at = &extents[kVectorsPerThread * t];
    if (!ReadPod(f, &thread.tid)) {
      return TraceLoadStatus::kTruncated;
    }
    TraceLoadStatus status =
        SkipVectorChecked(f, file_size, &thread.invocations, &at[0]);
    if (status == TraceLoadStatus::kOk) {
      status = SkipVectorChecked(f, file_size, &thread.segments, &at[1]);
    }
    if (status == TraceLoadStatus::kOk) {
      status = SkipVectorChecked(f, file_size, &thread.interval_events, &at[2]);
    }
    if (status != TraceLoadStatus::kOk) {
      return status;
    }
  }

  // The records: one pool block per vector.
  const int fd = ::fileno(f);
  std::vector<TraceLoadStatus> statuses(extents.size(), TraceLoadStatus::kOk);
  RunBlocks(extents.size(), [&](size_t block) {
    ThreadTrace& thread = trace->threads[block / kVectorsPerThread];
    const Extent& extent = extents[block];
    switch (block % kVectorsPerThread) {
      case 0:
        statuses[block] =
            ReadRecords(fd, extent, name_count, &thread.invocations);
        break;
      case 1:
        statuses[block] = ReadRecords(fd, extent, name_count, &thread.segments);
        break;
      default:
        statuses[block] =
            ReadRecords(fd, extent, name_count, &thread.interval_events);
        break;
    }
  });
  for (const TraceLoadStatus status : statuses) {
    if (status != TraceLoadStatus::kOk) {
      return status;
    }
  }
  return TraceLoadStatus::kOk;
}

}  // namespace

bool SaveTrace(const Trace& trace, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return false;
  }
  if (!WritePod(f.get(), kMagic) || !WritePod(f.get(), kVersion) ||
      !WritePod(f.get(), trace.duration)) {
    return false;
  }
  const uint64_t name_count = trace.function_names.size();
  if (!WritePod(f.get(), name_count)) {
    return false;
  }
  for (const std::string& name : trace.function_names) {
    if (!WriteString(f.get(), name)) {
      return false;
    }
  }
  const uint64_t thread_count = trace.threads.size();
  if (!WritePod(f.get(), thread_count)) {
    return false;
  }
  for (const ThreadTrace& t : trace.threads) {
    if (!WritePod(f.get(), t.tid) || !WriteRecords(f.get(), t.invocations) ||
        !WriteRecords(f.get(), t.segments) ||
        !WriteRecords(f.get(), t.interval_events)) {
      return false;
    }
  }
  return true;
}

const char* TraceLoadStatusName(TraceLoadStatus status) {
  switch (status) {
    case TraceLoadStatus::kOk:
      return "ok";
    case TraceLoadStatus::kOpenFailed:
      return "open_failed";
    case TraceLoadStatus::kBadMagic:
      return "bad_magic";
    case TraceLoadStatus::kBadVersion:
      return "bad_version";
    case TraceLoadStatus::kTruncated:
      return "truncated";
    case TraceLoadStatus::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

TraceLoadStatus LoadTraceChecked(const std::string& path, Trace* trace) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return TraceLoadStatus::kOpenFailed;
  }
  const TraceLoadStatus status = LoadTraceImpl(f.get(), trace);
  if (status != TraceLoadStatus::kOk) {
    *trace = Trace{};
  }
  return status;
}

bool LoadTrace(const std::string& path, Trace* trace) {
  return LoadTraceChecked(path, trace) == TraceLoadStatus::kOk;
}

}  // namespace vprof
