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

#include <cstddef>
#include <functional>
#include <memory>
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
  // Filled by BuildBreakdown(s); empty when a walk hands its windows to a
  // PathSink that does not store them.
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
  // Walks run in blocks of intervals on the analysis pool (see
  // WalkCriticalPaths), so a caller-supplied has_coverage may be called
  // from several threads at once. Without one, BuildBreakdown(s) treats no
  // blocked span as covered, and VarianceAnalysis covers a span that
  // overlaps a recorded invocation for a positive time.
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

  // Index of the last segment on tid with start < t, or -1. A `cursor`
  // (one per thread, any start value) makes the search gallop out from the
  // previous answer, which it updates; see SeekFirstAtOrAfter in seek.h.
  int LastSegmentBefore(ThreadId tid, TimeNs t,
                        size_t* cursor = nullptr) const;

  // Position of `thread` (one of this trace's) in trace().threads.
  size_t Position(const ThreadTrace* thread) const {
    return static_cast<size_t>(thread - trace_->threads.data());
  }

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

// Receives one interval's critical path as the walk emits it: the on-path
// windows, from the interval's end back to its begin. The walk itself keeps
// the wait totals in the interval's IntervalBreakdown.
class PathSink {
 public:
  virtual ~PathSink() = default;
  // The walk of the i-th interval of a WalkCriticalPaths sweep starts; the
  // breakdown's sid and times are set, and it lives until the sweep ends.
  virtual void Begin(size_t i, IntervalBreakdown* breakdown) = 0;
  // A span of execution on `tid` on the critical path.
  virtual void Window(ThreadId tid, TimeNs lo, TimeNs hi) = 0;
  // A blocked span of the target interval on `tid`. Returns true when an
  // instrumented invocation covers it, having taken the span as a window;
  // on false the walk follows the span's wake-up edge instead.
  virtual bool CoveredWait(ThreadId tid, TimeNs lo, TimeNs hi) = 0;
};

// Intervals per analysis-pool block of a WalkCriticalPaths sweep. A sweep
// of fewer than two blocks runs inline: it costs less than waking the pool.
inline constexpr size_t kPathBlockIntervals = 1024;

// Walks the critical path of every interval `options` selects, in index
// order, on the analysis pool: blocks of kPathBlockIntervals intervals, each
// walked on one thread through a sink of its own from new_sink(), which may
// be called from several threads at once. Returns the breakdowns, i-th for
// the i-th selected interval; their windows are whatever the sinks stored
// there.
std::vector<IntervalBreakdown> WalkCriticalPaths(
    const TraceIndex& index, const CriticalPathOptions& options,
    const std::function<std::unique_ptr<PathSink>()>& new_sink);

// Builds breakdowns for every completed interval in the trace: a
// WalkCriticalPaths sweep whose sinks store every window.
std::vector<IntervalBreakdown> BuildBreakdowns(
    const TraceIndex& index, const CriticalPathOptions& options = {});

// Builds the breakdown of a single interval.
IntervalBreakdown BuildBreakdown(const TraceIndex& index,
                                 const TraceIndex::IntervalInfo& info,
                                 const CriticalPathOptions& options = {});

}  // namespace vprof

#endif  // SRC_VPROF_ANALYSIS_CRITICAL_PATH_H_
