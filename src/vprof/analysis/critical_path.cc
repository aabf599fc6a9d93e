#include "src/vprof/analysis/critical_path.h"

#include <algorithm>

#include "src/vprof/analysis/pool.h"
#include "src/vprof/analysis/seek.h"

namespace vprof {

TraceIndex::TraceIndex(const Trace& trace) : trace_(&trace) {
  ThreadId max_tid = -1;
  for (const ThreadTrace& t : trace.threads) {
    max_tid = std::max(max_tid, t.tid);
  }
  tid_to_index_.assign(static_cast<size_t>(max_tid + 1), -1);
  for (size_t i = 0; i < trace.threads.size(); ++i) {
    tid_to_index_[static_cast<size_t>(trace.threads[i].tid)] = static_cast<int>(i);
  }

  // Match begin/end events into completed intervals. A stable sort by sid
  // keeps each interval's events in trace order (thread by thread), so when
  // an event is duplicated the last one wins, and the intervals come out
  // ordered by sid.
  struct Event {
    IntervalId sid;
    ThreadId tid;
    const IntervalEvent* event;
  };
  size_t event_count = 0;
  for (const ThreadTrace& t : trace.threads) {
    event_count += t.interval_events.size();
  }
  std::vector<Event> events;
  events.reserve(event_count);
  for (const ThreadTrace& t : trace.threads) {
    for (const IntervalEvent& e : t.interval_events) {
      events.push_back(Event{e.sid, t.tid, &e});
    }
  }
  std::stable_sort(
      events.begin(), events.end(),
      [](const Event& a, const Event& b) { return a.sid < b.sid; });
  for (size_t i = 0; i < events.size();) {
    IntervalInfo info;
    info.sid = events[i].sid;
    for (; i < events.size() && events[i].sid == info.sid; ++i) {
      const IntervalEvent& e = *events[i].event;
      if (e.kind == IntervalEventKind::kBegin) {
        info.begin_time = e.time;
        info.begin_tid = events[i].tid;
        info.label = e.label;
        info.has_begin = true;
      } else {
        info.end_time = e.time;
        info.end_tid = events[i].tid;
        info.has_end = true;
      }
    }
    // Only fully observed intervals are analyzable. Filtering on the event
    // flags (not on end_time > 0) keeps an end-without-begin orphan — whose
    // zero-initialized begin_time would misattribute the whole run prefix —
    // out of the index when the trace is truncated.
    if (info.has_begin && info.has_end && info.end_time >= info.begin_time) {
      intervals_.push_back(info);
    }
  }
}

const ThreadTrace* TraceIndex::Thread(ThreadId tid) const {
  if (tid < 0 || static_cast<size_t>(tid) >= tid_to_index_.size()) {
    return nullptr;
  }
  const int idx = tid_to_index_[static_cast<size_t>(tid)];
  return idx < 0 ? nullptr : &trace_->threads[static_cast<size_t>(idx)];
}

int TraceIndex::LastSegmentBefore(ThreadId tid, TimeNs t,
                                  size_t* cursor) const {
  const ThreadTrace* thread = Thread(tid);
  if (thread == nullptr) {
    return -1;
  }
  size_t from_start = 0;
  // First segment with start >= t, then step back one.
  return static_cast<int>(SeekFirstAtOrAfter(
             thread->segments, t, cursor != nullptr ? cursor : &from_start)) -
         1;
}

namespace {

// Recursive walker implementing the Algorithm 2 traversal.
class Walker {
 public:
  // `segment_cursors` holds a segment search cursor per thread position.
  Walker(const TraceIndex& index, const CriticalPathOptions& options,
         std::vector<size_t>* segment_cursors, PathSink* sink,
         IntervalBreakdown* out)
      : index_(index),
        options_(options),
        segment_cursors_(*segment_cursors),
        sink_(sink),
        out_(out) {}

  // Walks backwards on `tid` from time `hi` down to `lo`. When
  // `target_thread` is true, only segments labeled with the target interval
  // join the path (others count as descheduled time) and created-by edges are
  // followed; when false (waker chains), every executing segment in the
  // window joins the path.
  void Walk(ThreadId tid, TimeNs hi, TimeNs lo, bool target_thread, int depth) {
    if (hi <= lo || depth > options_.max_waker_depth) {
      return;
    }
    const ThreadTrace* thread = index_.Thread(tid);
    if (thread == nullptr) {
      return;
    }
    int idx = index_.LastSegmentBefore(
        tid, hi, &segment_cursors_[index_.Position(thread)]);
    TimeNs cursor = hi;
    while (idx >= 0 && cursor > lo) {
      const Segment& seg = thread->segments[static_cast<size_t>(idx)];
      if (seg.end <= lo) {
        break;
      }
      const TimeNs clip_lo = std::max(seg.start, lo);
      const TimeNs clip_hi = std::min(seg.end, cursor);
      if (clip_hi > clip_lo) {
        ProcessSegment(tid, seg, clip_lo, clip_hi, target_thread, depth);
      }
      // Jump across a created-by edge: the target's task began here; the
      // remaining path continues on the producer thread. Also taken on waker
      // chains: when the interval ends on the submitting thread, the walk
      // reaches the worker through the completion wake-up, and the span
      // between enqueue and the task's first segment is queueing delay, not
      // execution the worker did for someone else.
      if (seg.sid == out_->sid && seg.generator_tid != kNoThread &&
          seg.generator_time >= 0 && seg.generator_time < clip_lo) {
        out_->queue_wait_ns += static_cast<double>(clip_lo - std::max(seg.generator_time, lo));
        Walk(seg.generator_tid, std::max(seg.generator_time, lo), lo, true,
             depth);
        return;
      }
      cursor = clip_lo;
      --idx;
    }
  }

 private:
  void ProcessSegment(ThreadId tid, const Segment& seg, TimeNs clip_lo,
                      TimeNs clip_hi, bool target_thread, int depth) {
    const bool on_path = !target_thread || seg.sid == out_->sid;
    if (!on_path) {
      // The thread ran other work between two segments of the target.
      out_->descheduled_ns += static_cast<double>(clip_hi - clip_lo);
      return;
    }
    switch (seg.state) {
      case SegmentState::kExecuting:
        sink_->Window(tid, clip_lo, clip_hi);
        break;
      case SegmentState::kBlocked:
        if (target_thread && sink_->CoveredWait(tid, clip_lo, clip_hi)) {
          // An instrumented wait function spans this blocked time: the sink
          // attributed it there (os_event_wait-style accounting).
          break;
        }
        if (seg.waker_tid != kNoThread && seg.waker_tid != tid &&
            seg.waker_time > clip_lo) {
          // The blocked span was spent waiting for the waker: follow it.
          Walk(seg.waker_tid, std::min(seg.waker_time, clip_hi), clip_lo,
               /*target_thread=*/false, depth + 1);
        } else {
          out_->blocked_wait_ns += static_cast<double>(clip_hi - clip_lo);
        }
        break;
      case SegmentState::kQueueWait:
        out_->queue_wait_ns += static_cast<double>(clip_hi - clip_lo);
        break;
    }
  }

  const TraceIndex& index_;
  const CriticalPathOptions& options_;
  std::vector<size_t>& segment_cursors_;
  PathSink* sink_;
  IntervalBreakdown* out_;
};

// Fills `out` with the interval's times and waits, handing its windows to
// `sink`.
void WalkInterval(const TraceIndex& index,
                  const TraceIndex::IntervalInfo& info,
                  const CriticalPathOptions& options, size_t i,
                  std::vector<size_t>* segment_cursors, PathSink* sink,
                  IntervalBreakdown* out) {
  out->sid = info.sid;
  out->begin_time = info.begin_time;
  out->end_time = info.end_time;
  sink->Begin(i, out);
  Walker(index, options, segment_cursors, sink, out)
      .Walk(info.end_tid, info.end_time, info.begin_time,
            /*target_thread=*/true, /*depth=*/0);
}

// Stores every window in the breakdown. A blocked span is covered when the
// caller's has_coverage says so; without one, never.
class CollectingSink final : public PathSink {
 public:
  explicit CollectingSink(const CriticalPathOptions& options)
      : options_(options) {}

  void Begin(size_t, IntervalBreakdown* breakdown) override {
    out_ = breakdown;
  }
  void Window(ThreadId tid, TimeNs lo, TimeNs hi) override {
    out_->windows.push_back(PathWindow{tid, lo, hi});
  }
  bool CoveredWait(ThreadId tid, TimeNs lo, TimeNs hi) override {
    if (!options_.has_coverage || !options_.has_coverage(tid, lo, hi)) {
      return false;
    }
    Window(tid, lo, hi);
    return true;
  }

 private:
  const CriticalPathOptions& options_;
  IntervalBreakdown* out_ = nullptr;
};

}  // namespace

IntervalBreakdown BuildBreakdown(const TraceIndex& index,
                                 const TraceIndex::IntervalInfo& info,
                                 const CriticalPathOptions& options) {
  IntervalBreakdown out;
  CollectingSink sink(options);
  std::vector<size_t> cursors(index.trace().threads.size(), 0);
  WalkInterval(index, info, options, 0, &cursors, &sink, &out);
  return out;
}

std::vector<IntervalBreakdown> WalkCriticalPaths(
    const TraceIndex& index, const CriticalPathOptions& options,
    const std::function<std::unique_ptr<PathSink>()>& new_sink) {
  std::vector<const TraceIndex::IntervalInfo*> intervals;
  for (const TraceIndex::IntervalInfo& info : index.Intervals()) {
    if (options.Selects(info.label)) {
      intervals.push_back(&info);
    }
  }
  std::vector<IntervalBreakdown> out(intervals.size());
  const size_t blocks =
      (intervals.size() + kPathBlockIntervals - 1) / kPathBlockIntervals;
  RunBlocks(blocks, [&](size_t block) {
    const std::unique_ptr<PathSink> sink = new_sink();
    // Consecutive intervals lie close in time, so each block gallops its
    // segment searches from where its previous walk left them.
    std::vector<size_t> cursors(index.trace().threads.size(), 0);
    const size_t end =
        std::min(intervals.size(), (block + 1) * kPathBlockIntervals);
    for (size_t i = block * kPathBlockIntervals; i < end; ++i) {
      WalkInterval(index, *intervals[i], options, i, &cursors, sink.get(),
                   &out[i]);
    }
  });
  return out;
}

std::vector<IntervalBreakdown> BuildBreakdowns(
    const TraceIndex& index, const CriticalPathOptions& options) {
  return WalkCriticalPaths(index, options, [&options] {
    return std::make_unique<CollectingSink>(options);
  });
}

}  // namespace vprof
