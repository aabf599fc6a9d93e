// Backwards critical-path construction for semantic intervals
// (paper Figure 2 and Algorithm 2).
//
// Starting at the segment containing an interval's end annotation, the walk
// proceeds backwards in time: same-interval executing segments join the path;
// blocked segments divert the walk into the waker thread for the blocked
// span; created-by edges divert it into the producer thread and account the
// enqueue-to-dequeue gap as queueing delay. The walk stops at the interval's
// creation timestamp. The result is a set of (thread, time-window) spans on
// the critical path plus categorized wait time.
#ifndef SRC_VPROF_ANALYSIS_CRITICAL_PATH_H_
#define SRC_VPROF_ANALYSIS_CRITICAL_PATH_H_

#include <functional>
#include <string>
#include <vector>

#include "src/vprof/trace.h"
#include "src/vprof/types.h"

namespace vprof {

// A span of on-critical-path execution on one thread.
struct PathWindow {
  ThreadId tid = kNoThread;
  TimeNs lo = 0;
  TimeNs hi = 0;
};

// Critical-path decomposition of one semantic interval.
struct IntervalBreakdown {
  IntervalId sid = kNoInterval;
  TimeNs begin_time = 0;
  TimeNs end_time = 0;
  std::vector<PathWindow> windows;

  // Wait time (ns) on the critical path that could not be attributed to
  // another thread's execution.
  double queue_wait_ns = 0.0;      // enqueue -> dequeue gaps
  double blocked_wait_ns = 0.0;    // blocked with no usable wake-up edge
  double descheduled_ns = 0.0;     // thread ran other work between segments

  double latency_ns() const {
    return static_cast<double>(end_time - begin_time);
  }
};

struct CriticalPathOptions {
  // Maximum depth of nested waker-chain recursion.
  int max_waker_depth = 8;

  // Optional: returns true when an instrumented function invocation on
  // `tid` covers the window [lo, hi]. When a *target-interval* blocked
  // segment is covered (e.g. a lock wait inside os_event_wait), its time is
  // attributed to that function — the paper's convention, which is what
  // lets Table 4 report os_event_wait as a variance factor. Uncovered
  // blocked segments fall back to the wake-up-edge jump into the waker
  // thread (essential for cross-thread handoffs with no instrumented wait).
  // VarianceAnalysis walks blocks of intervals on the analysis pool, so it
  // may call a caller-supplied has_coverage from several threads at once.
  std::function<bool(ThreadId tid, TimeNs lo, TimeNs hi)> has_coverage;

  // Optional: analyze only intervals whose begin annotation carried this
  // label (per-request-type profiles). kNoLabel (with filter_by_label=false)
  // analyzes everything.
  bool filter_by_label = false;
  IntervalLabel label_filter = kNoLabel;
  // Whether an interval whose begin annotation carried `label` is analyzed.
  bool Selects(IntervalLabel label) const {
    return !filter_by_label || label == label_filter;
  }

  // Optional: the name of a registered function that receives each
  // interval's critical-path queue wait (enqueue-to-dequeue gaps and
  // kQueueWait segments) as a leaf node under the synthetic root. Queueing
  // delay otherwise lands in the root's "(other)" body residual, which
  // factor selection skips — naming it makes accept-queue / dispatch wait a
  // first-class variance factor (the network front-end sets this to
  // net::kQueueWaitFactor). Consumed by VarianceAnalysis, not the walker;
  // ignored when the name was never registered during the run.
  std::string queue_wait_factor;
};

// Index of a Trace by thread, with time-ordered binary search helpers.
class TraceIndex {
 public:
  explicit TraceIndex(const Trace& trace);

  const Trace& trace() const { return *trace_; }

  // Thread trace for tid, or nullptr.
  const ThreadTrace* Thread(ThreadId tid) const;

  // Index of the last segment on tid with start < t, or -1.
  int LastSegmentBefore(ThreadId tid, TimeNs t) const;

  // All semantic intervals that have both begin and end events, ordered by
  // interval id.
  struct IntervalInfo {
    IntervalId sid = kNoInterval;
    TimeNs begin_time = 0;
    TimeNs end_time = 0;
    ThreadId begin_tid = kNoThread;
    ThreadId end_tid = kNoThread;
    IntervalLabel label = kNoLabel;
    // Which annotations were actually observed. A truncated trace (arena
    // cap, quarantined thread) can contain either event alone; only
    // intervals with both are analyzable.
    bool has_begin = false;
    bool has_end = false;
  };
  const std::vector<IntervalInfo>& Intervals() const { return intervals_; }

 private:
  const Trace* trace_;
  std::vector<int> tid_to_index_;  // tid -> position in trace_->threads
  std::vector<IntervalInfo> intervals_;
};

// Builds breakdowns for every completed interval in the trace.
std::vector<IntervalBreakdown> BuildBreakdowns(
    const TraceIndex& index, const CriticalPathOptions& options = {});

// Builds the breakdown of a single interval.
IntervalBreakdown BuildBreakdown(const TraceIndex& index,
                                 const TraceIndex::IntervalInfo& info,
                                 const CriticalPathOptions& options = {});

}  // namespace vprof

#endif  // SRC_VPROF_ANALYSIS_CRITICAL_PATH_H_
