#include "src/vprof/trace.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>

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

template <typename T>
TraceLoadStatus ReadVectorChecked(std::FILE* f, uint64_t file_size,
                                  std::vector<T>* v) {
  uint64_t size = 0;
  if (!ReadPod(f, &size)) {
    return TraceLoadStatus::kTruncated;
  }
  if (size > (1ull << 32)) {
    return TraceLoadStatus::kCorrupt;
  }
  if (size * sizeof(T) > RemainingBytes(f, file_size)) {
    return TraceLoadStatus::kTruncated;
  }
  v->resize(size);
  return ReadBytes(f, v->data(), v->size() * sizeof(T))
             ? TraceLoadStatus::kOk
             : TraceLoadStatus::kTruncated;
}

// Field-level validation of one thread's records. Everything checked here
// is indexed or switched on by the analysis layer without further guards.
TraceLoadStatus ValidateThread(const ThreadTrace& t, uint64_t name_count) {
  for (size_t i = 0; i < t.invocations.size(); ++i) {
    const Invocation& inv = t.invocations[i];
    if (inv.func == kInvalidFunc ||
        static_cast<uint64_t>(inv.func) >= name_count) {
      return TraceLoadStatus::kCorrupt;
    }
    // Parents are earlier records on the same thread; a forward or self
    // reference would make the analysis chase a cycle.
    if (inv.parent < -1 || inv.parent >= static_cast<int32_t>(i)) {
      return TraceLoadStatus::kCorrupt;
    }
  }
  for (const Segment& seg : t.segments) {
    if (seg.state != SegmentState::kExecuting &&
        seg.state != SegmentState::kBlocked &&
        seg.state != SegmentState::kQueueWait) {
      return TraceLoadStatus::kCorrupt;
    }
  }
  for (const IntervalEvent& e : t.interval_events) {
    if (e.kind != IntervalEventKind::kBegin &&
        e.kind != IntervalEventKind::kEnd) {
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
  trace->threads.resize(thread_count);
  for (ThreadTrace& t : trace->threads) {
    if (!ReadPod(f, &t.tid)) {
      return TraceLoadStatus::kTruncated;
    }
    TraceLoadStatus status = ReadVectorChecked(f, file_size, &t.invocations);
    if (status == TraceLoadStatus::kOk) {
      status = ReadVectorChecked(f, file_size, &t.segments);
    }
    if (status == TraceLoadStatus::kOk) {
      status = ReadVectorChecked(f, file_size, &t.interval_events);
    }
    if (status == TraceLoadStatus::kOk) {
      status = ValidateThread(t, name_count);
    }
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
