#include "src/vprof/analysis/critical_path.h"

#include <algorithm>

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

int TraceIndex::LastSegmentBefore(ThreadId tid, TimeNs t) const {
  const ThreadTrace* thread = Thread(tid);
  if (thread == nullptr || thread->segments.empty()) {
    return -1;
  }
  // First segment with start >= t, then step back one.
  const auto it = std::lower_bound(
      thread->segments.begin(), thread->segments.end(), t,
      [](const Segment& seg, TimeNs value) { return seg.start < value; });
  const int idx = static_cast<int>(it - thread->segments.begin()) - 1;
  return idx;
}

namespace {

// Recursive walker implementing the Algorithm 2 traversal.
class Walker {
 public:
  Walker(const TraceIndex& index, const CriticalPathOptions& options,
         IntervalBreakdown* out)
      : index_(index), options_(options), out_(out) {}

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
    int idx = index_.LastSegmentBefore(tid, hi);
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
        out_->windows.push_back(PathWindow{tid, clip_lo, clip_hi});
        break;
      case SegmentState::kBlocked:
        if (target_thread && options_.has_coverage &&
            options_.has_coverage(tid, clip_lo, clip_hi)) {
          // An instrumented wait function spans this blocked time: attribute
          // it there (os_event_wait-style accounting).
          out_->windows.push_back(PathWindow{tid, clip_lo, clip_hi});
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
  IntervalBreakdown* out_;
};

}  // namespace

IntervalBreakdown BuildBreakdown(const TraceIndex& index,
                                 const TraceIndex::IntervalInfo& info,
                                 const CriticalPathOptions& options) {
  IntervalBreakdown out;
  out.sid = info.sid;
  out.begin_time = info.begin_time;
  out.end_time = info.end_time;
  Walker walker(index, options, &out);
  walker.Walk(info.end_tid, info.end_time, info.begin_time,
              /*target_thread=*/true, /*depth=*/0);
  return out;
}

std::vector<IntervalBreakdown> BuildBreakdowns(const TraceIndex& index,
                                               const CriticalPathOptions& options) {
  std::vector<IntervalBreakdown> out;
  out.reserve(index.Intervals().size());
  for (const auto& info : index.Intervals()) {
    if (options.Selects(info.label)) {
      out.push_back(BuildBreakdown(index, info, options));
    }
  }
  return out;
}

}  // namespace vprof
