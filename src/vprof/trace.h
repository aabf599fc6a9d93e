// In-memory representation of one tracing run, mirroring the four record
// kinds of paper Section 3.3.1:
//   1. segments            <tid, sid, ts, te, state>
//   2. function invocations <tid, sid, f, fs, fe>   (+ dynamic parent link)
//   3. wake-up edges        <tid, tid', t>           (attached to the blocked
//                                                     segment they terminate)
//   4. created-by edges     <tid, ts, tid', ts'>     (attached to the segment
//                                                     that starts processing
//                                                     the dequeued task)
#ifndef SRC_VPROF_TRACE_H_
#define SRC_VPROF_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/vprof/types.h"

namespace vprof {

// One recorded invocation of an instrumented function.
struct Invocation {
  TimeNs start = 0;
  TimeNs end = -1;             // -1 while open; clamped at StopTracing
  FuncId func = kInvalidFunc;
  int32_t parent = -1;         // index of enclosing recorded invocation on the
                               // same thread, -1 if none
  IntervalId sid = kNoInterval;
};

// A contiguous stretch of time on one thread with a fixed (interval, state)
// label. Wake-up and created-by edges are stored inline on the segment they
// pertain to.
struct Segment {
  TimeNs start = 0;
  TimeNs end = -1;
  IntervalId sid = kNoInterval;
  SegmentState state = SegmentState::kExecuting;

  // For kBlocked/kQueueWait segments: who unblocked this thread, and when.
  ThreadId waker_tid = kNoThread;
  TimeNs waker_time = -1;

  // For the first executing segment of a dequeued task: who enqueued the task
  // (the "created-by" producer) and when.
  ThreadId generator_tid = kNoThread;
  TimeNs generator_time = -1;
};

// Start or end annotation of a semantic interval. The begin event carries
// the application-defined label (request type).
struct IntervalEvent {
  IntervalId sid = kNoInterval;
  TimeNs time = 0;
  IntervalEventKind kind = IntervalEventKind::kBegin;
  IntervalLabel label = kNoLabel;
};

// Everything recorded by one thread during a run.
struct ThreadTrace {
  ThreadId tid = kNoThread;
  std::vector<Invocation> invocations;    // ordered by start time
  std::vector<Segment> segments;          // ordered, non-overlapping
  std::vector<IntervalEvent> interval_events;
  // Records lost to the optional arena cap (see SetArenaRecordCap): the
  // trace for this thread is truncated, not complete.
  uint64_t dropped_records = 0;
};

// A complete tracing run.
struct Trace {
  TimeNs duration = 0;  // run length in ns (records use run-relative times)
  std::vector<ThreadTrace> threads;
  // Names of all registered functions, indexed by FuncId, snapshotted at
  // StopTracing so a Trace is self-describing.
  std::vector<std::string> function_names;

  // Diagnostics (in-memory only; not serialized by SaveTrace): threads whose
  // records were quarantined because they failed to quiesce at StopTracing.
  // Their data is absent from `threads`.
  std::vector<ThreadId> stuck_threads;

  const std::string& FunctionName(FuncId f) const { return function_names[f]; }

  // Total record counts, for tests and reporting.
  uint64_t invocation_count() const;
  uint64_t segment_count() const;
  uint64_t interval_count() const;  // number of kEnd events
  uint64_t dropped_record_count() const;  // lost to arena caps, all threads
};

// Binary (de)serialization for storing traces on disk. Returns false on I/O
// or format errors.
bool SaveTrace(const Trace& trace, const std::string& path);
bool LoadTrace(const std::string& path, Trace* trace);

// Why loading a trace file failed. Downstream analysis indexes straight
// into the loaded vectors (parent links, FuncIds, enum states), so the
// loader must reject anything structurally invalid rather than let a
// corrupt file turn into out-of-bounds reads.
enum class TraceLoadStatus {
  kOk = 0,
  kOpenFailed,   // file missing or unreadable
  kBadMagic,     // not a VPRF trace file
  kBadVersion,   // VPRF file from an incompatible format version
  kTruncated,    // file ends mid-record (or a length field overruns the file)
  kCorrupt,      // a field holds a value the format forbids
};

// Stable name for logs/tests, e.g. "truncated".
const char* TraceLoadStatusName(TraceLoadStatus status);

// As LoadTrace, but reports what went wrong. On any non-kOk status `*trace`
// is left cleared, never partially filled. LoadTrace() is equivalent to
// LoadTraceChecked() == kOk.
//
// The header and every length field are checked, in file order, before any
// record's fields are: a file that is both truncated and holds a forbidden
// field value reports kTruncated. The records are then read and validated
// on the analysis pool (analysis/pool.h), one vector per block.
TraceLoadStatus LoadTraceChecked(const std::string& path, Trace* trace);

}  // namespace vprof

#endif  // SRC_VPROF_TRACE_H_
