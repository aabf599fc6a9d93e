// Fundamental types shared by the VProfiler runtime and analysis.
#ifndef SRC_VPROF_TYPES_H_
#define SRC_VPROF_TYPES_H_

#include <cstddef>
#include <cstdint>

namespace vprof {

// Nanoseconds since the start of the current tracing run.
using TimeNs = int64_t;

// Identifier of a semantic interval (transaction, request). 0 means "no
// interval": background work not executed on behalf of any request.
using IntervalId = uint64_t;
inline constexpr IntervalId kNoInterval = 0;

// Application-defined class of a semantic interval (e.g. the transaction
// type), usable to compute per-request-type variance profiles. 0 = untyped.
using IntervalLabel = uint32_t;
inline constexpr IntervalLabel kNoLabel = 0;

// Dense identifier of a registered (instrumentable) function.
using FuncId = uint32_t;
inline constexpr FuncId kInvalidFunc = 0xffffffffu;

// Dense per-run thread identifier.
using ThreadId = int32_t;
inline constexpr ThreadId kNoThread = -1;

// Alignment used to keep per-thread hot state (ThreadState, full-trace
// rings) on private cache lines. 64 bytes covers x86-64 and most ARM parts;
// destructive interference is what matters, so err on the hardware constant
// rather than std::hardware_destructive_interference_size, which GCC warns
// about being ABI-unstable.
inline constexpr size_t kCacheLineSize = 64;

// State of an execution segment (paper Section 3.3.1, segment 5-tuple).
enum class SegmentState : uint8_t {
  kExecuting = 0,  // running application code
  kBlocked = 1,    // blocked on a synchronization object (lock, condvar, I/O)
  kQueueWait = 2,  // waiting to dequeue from an empty task/message queue
};

// What a segment's generator edge records (Segment::generator_tid/_time).
enum class EdgeKind : uint8_t {
  // The segment starts a task another thread enqueued: the gap since the
  // enqueue is queueing delay (paper Section 3.3.2).
  kCreatedBy = 0,
  // The segment resumes an interval another thread handed off when it
  // registered a completion (a pipelined commit): across the gap the
  // interval waited on this thread's own work, such as the flush it led.
  kCompletion = 1,
};

enum class IntervalEventKind : uint8_t {
  kBegin = 0,
  kEnd = 1,
};

}  // namespace vprof

#endif  // SRC_VPROF_TYPES_H_
