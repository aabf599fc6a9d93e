// Test utility: builds vprof::Trace objects by hand so the offline analysis
// can be verified against exactly known inputs, independent of timing.
#ifndef TESTS_VPROF_TRACE_BUILDER_H_
#define TESTS_VPROF_TRACE_BUILDER_H_

#include <string>
#include <vector>

#include "src/vprof/registry.h"
#include "src/vprof/trace.h"

namespace vprof_test {

class TraceBuilder {
 public:
  TraceBuilder() = default;

  // Registers a function in the global registry (so ids are consistent with
  // CallGraph lookups) and returns its FuncId.
  vprof::FuncId Func(const std::string& name) {
    return vprof::RegisterFunction(name);
  }

  vprof::ThreadTrace& Thread(vprof::ThreadId tid) {
    for (auto& t : trace_.threads) {
      if (t.tid == tid) {
        return t;
      }
    }
    trace_.threads.push_back(vprof::ThreadTrace{});
    trace_.threads.back().tid = tid;
    return trace_.threads.back();
  }

  TraceBuilder& Begin(vprof::ThreadId tid, vprof::IntervalId sid, vprof::TimeNs t,
                      vprof::IntervalLabel label = vprof::kNoLabel) {
    Thread(tid).interval_events.push_back(
        {sid, t, vprof::IntervalEventKind::kBegin, label});
    return *this;
  }

  TraceBuilder& End(vprof::ThreadId tid, vprof::IntervalId sid, vprof::TimeNs t) {
    Thread(tid).interval_events.push_back(
        {sid, t, vprof::IntervalEventKind::kEnd});
    return *this;
  }

  TraceBuilder& Exec(vprof::ThreadId tid, vprof::IntervalId sid, vprof::TimeNs ts,
                     vprof::TimeNs te) {
    vprof::Segment seg;
    seg.start = ts;
    seg.end = te;
    seg.sid = sid;
    seg.state = vprof::SegmentState::kExecuting;
    Thread(tid).segments.push_back(seg);
    return *this;
  }

  TraceBuilder& Blocked(vprof::ThreadId tid, vprof::IntervalId sid,
                        vprof::TimeNs ts, vprof::TimeNs te,
                        vprof::ThreadId waker = vprof::kNoThread,
                        vprof::TimeNs waker_time = -1) {
    vprof::Segment seg;
    seg.start = ts;
    seg.end = te;
    seg.sid = sid;
    seg.state = vprof::SegmentState::kBlocked;
    seg.waker_tid = waker;
    seg.waker_time = waker_time;
    Thread(tid).segments.push_back(seg);
    return *this;
  }

  TraceBuilder& QueueWait(vprof::ThreadId tid, vprof::IntervalId sid,
                          vprof::TimeNs ts, vprof::TimeNs te) {
    vprof::Segment seg;
    seg.start = ts;
    seg.end = te;
    seg.sid = sid;
    seg.state = vprof::SegmentState::kQueueWait;
    Thread(tid).segments.push_back(seg);
    return *this;
  }

  // Executing segment carrying a created-by edge (first segment of a task).
  TraceBuilder& ExecGenerated(vprof::ThreadId tid, vprof::IntervalId sid,
                              vprof::TimeNs ts, vprof::TimeNs te,
                              vprof::ThreadId producer, vprof::TimeNs enqueue_time) {
    vprof::Segment seg;
    seg.start = ts;
    seg.end = te;
    seg.sid = sid;
    seg.state = vprof::SegmentState::kExecuting;
    seg.generator_tid = producer;
    seg.generator_time = enqueue_time;
    Thread(tid).segments.push_back(seg);
    return *this;
  }

  // Executing segment that resumes an interval `from` handed off at
  // `handoff_time`: the first segment of a completion (EdgeKind::kCompletion).
  TraceBuilder& ExecCompletion(vprof::ThreadId tid, vprof::IntervalId sid,
                               vprof::TimeNs ts, vprof::TimeNs te,
                               vprof::ThreadId from,
                               vprof::TimeNs handoff_time) {
    ExecGenerated(tid, sid, ts, te, from, handoff_time);
    Thread(tid).segments.back().edge_kind = vprof::EdgeKind::kCompletion;
    return *this;
  }

  // Adds an invocation; returns its index on the thread (for parent links).
  int Invoke(vprof::ThreadId tid, const std::string& func, vprof::TimeNs fs,
             vprof::TimeNs fe, int parent = -1,
             vprof::IntervalId sid = vprof::kNoInterval) {
    vprof::Invocation inv;
    inv.start = fs;
    inv.end = fe;
    inv.func = Func(func);
    inv.parent = parent;
    inv.sid = sid;
    auto& t = Thread(tid);
    t.invocations.push_back(inv);
    return static_cast<int>(t.invocations.size()) - 1;
  }

  vprof::Trace Build(vprof::TimeNs duration = 1000000) {
    trace_.duration = duration;
    trace_.function_names = vprof::AllFunctionNames();
    return trace_;
  }

 private:
  vprof::Trace trace_;
};

}  // namespace vprof_test

#endif  // TESTS_VPROF_TRACE_BUILDER_H_
