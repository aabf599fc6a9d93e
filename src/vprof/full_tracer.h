// A deliberately heavyweight "instrument everything" tracer, standing in for
// DTrace-style binary injection in the Figure 3 overhead comparison.
//
// Every probe — regardless of the selection flags — takes a timestamp, keys
// the event by a hash of the function's *symbol name* (as binary tracers
// do), and appends it to a per-thread ring buffer (only the rings' counters
// are read back), so the §4.1 comparison measures per-event
// instrumentation cost, not convoying on a global lock: the old
// single-mutex event log serialized every traced call in the process, which
// made VProfiler's advantage look larger than the per-probe work justifies.
// Rings are bounded (generic tracers stream to a consumer; we emulate by
// overwriting the oldest events) and the overwritten count is reported.
#ifndef SRC_VPROF_FULL_TRACER_H_
#define SRC_VPROF_FULL_TRACER_H_

#include <cstdint>

#include "src/vprof/types.h"

namespace vprof {

struct FullTraceStats {
  uint64_t events = 0;              // total events recorded
  uint64_t dropped = 0;             // of those, overwritten by ring wrap
  uint64_t distinct_functions = 0;  // distinct symbols seen
  uint64_t threads = 0;             // rings (threads) that recorded anything
};

// One entry/exit event. `name_hash` is the symbol key a binary tracer would
// aggregate by; `func` is the probe's id.
struct FullTraceEvent {
  uint64_t name_hash = 0;
  TimeNs time = 0;
  FuncId func = kInvalidFunc;
  bool entry = false;
};

// Hot path: called from every probe while full-trace mode is on. Lock-free;
// touches only the calling thread's ring.
void FullTracerOnEntry(FuncId func);
void FullTracerOnExit(FuncId func);

// Aggregate counters across all rings. Reads atomics only; callable any time.
FullTraceStats GetFullTracerStats();

void ResetFullTracer();

}  // namespace vprof

#endif  // SRC_VPROF_FULL_TRACER_H_
