// The VProfiler online runtime: tracing control, per-thread record buffers,
// semantic-interval annotations, and the hooks used by probes and the
// instrumented synchronization primitives.
//
// Concurrency model (the "epoch handshake"): every mutation of a
// ThreadState happens inside a BeginOp/EndOp window, a Dekker-style
// handshake against the control thread. The owner publishes busy_=1
// (seq_cst) and then re-checks g_tracing (seq_cst); the control thread
// stores g_tracing=false (seq_cst) and then spins until busy_==0. Sequential
// consistency guarantees at least one side observes the other, so once
// WaitQuiescent returns, no recording op is in flight and none can start —
// StartTracing can reset buffers and StopTracing can collect them without
// locking the probe hot path. Ops are tiny (no blocking inside a window),
// so the spin is bounded by an append, not by application code.
#ifndef SRC_VPROF_RUNTIME_H_
#define SRC_VPROF_RUNTIME_H_

#include <atomic>
#include <cstdint>

#include "src/fault/failpoint.h"
#include "src/vprof/chunked_buffer.h"
#include "src/vprof/fastclock.h"
#include "src/vprof/registry.h"
#include "src/vprof/trace.h"
#include "src/vprof/types.h"

namespace vprof {

// Maximum nesting depth of simultaneously-open recorded probes on one thread.
inline constexpr int kMaxProbeDepth = 128;

// Fast global flags, read on every probe. Mutate only via Start/StopTracing
// and EnableFullTrace.
extern std::atomic<bool> g_tracing;
extern std::atomic<bool> g_full_trace;

namespace detail {
// True when sys_membarrier(PRIVATE_EXPEDITED) is registered: the handshake
// runs asymmetrically — probes use relaxed stores (no fence instruction) and
// the control thread pays for the StoreLoad ordering with one syscall per
// quiesce. False (no membarrier, or under TSan where the kernel barrier is
// invisible to the race detector) falls back to seq_cst on both sides.
// Set once at static init, before any worker thread can exist.
extern std::atomic<bool> g_asymmetric_quiesce;

// "vprof/probe_wedge" failpoint: parks the calling probe inside its op
// window until the failpoint is disarmed, simulating a thread stuck
// mid-record. Reached only when at least one failpoint is armed.
void MaybeWedgeProbe();
}  // namespace detail

inline bool IsTracing() { return g_tracing.load(std::memory_order_relaxed); }
inline bool IsFullTrace() { return g_full_trace.load(std::memory_order_relaxed); }

// Nanoseconds since the current run's epoch (TSC fast clock; see fastclock.h).
inline TimeNs Now() { return fastclock::NowNs(); }

// All per-thread recording state. One instance per OS thread that touches the
// runtime while tracing; owned by the global runtime, reset between runs.
// Cache-line-aligned so two threads' hot state never shares a line.
class alignas(kCacheLineSize) ThreadState {
 public:
  // Ticket for CloseInvocation: the record's slot (stable — chunks never
  // move) and the run that owns it. `slot == nullptr` means the op lost the
  // handshake (tracing off) and nothing was recorded.
  struct OpenHandle {
    Invocation* slot = nullptr;
    uint64_t epoch = 0;
  };

  explicit ThreadState(ThreadId tid) : tid_(tid) {}

  ThreadId tid() const { return tid_; }
  IntervalId current_sid() const { return current_sid_; }
  uint64_t run_epoch() const { return run_epoch_; }

  // --- probe hooks (hot path, inline) ----------------------------------
  // Opens an invocation record; timestamps internally off the fast clock.
  OpenHandle OpenInvocation(FuncId func) {
    if (!BeginOp()) {
      return OpenHandle{};
    }
    if (fault::AnyActive()) [[unlikely]] {
      detail::MaybeWedgeProbe();
    }
    const TimeNs now = fastclock::NowNs();
    EnsureSegmentOpen(now);
    const uint32_t index = static_cast<uint32_t>(invocations_.size());
    // Uninitialized append: every field is stored below. Under an arena cap
    // the append may land in the scratch slot (record dropped); the slot is
    // still written — and CloseInvocation can write its end — but nothing
    // may link to its never-stored index.
    Invocation* inv = invocations_.AppendUninit();
    const bool dropped = invocations_.size() == index;
    inv->start = now;
    inv->end = -1;
    inv->func = func;
    inv->sid = current_sid_;
    if (depth_ > 0) {
      // Frames past kMaxProbeDepth are not stored; attribute them to the
      // deepest tracked ancestor instead of reading past the stack.
      const int parent =
          depth_ <= kMaxProbeDepth ? depth_ - 1 : kMaxProbeDepth - 1;
      const uint32_t parent_index = stack_[parent].record_index;
      inv->parent = parent_index == kDroppedRecord
                        ? -1
                        : static_cast<int32_t>(parent_index);
    } else {
      inv->parent = -1;
    }
    if (depth_ < kMaxProbeDepth) {
      stack_[depth_] = Frame{func, dropped ? kDroppedRecord : index};
    }
    ++depth_;
    const OpenHandle handle{inv, run_epoch_};
    EndOp();
    return handle;
  }

  void CloseInvocation(OpenHandle handle) {
    if (!BeginOp()) {
      return;
    }
    // Drop the close if tracing restarted underneath the probe scope: the
    // slot belongs to the previous run's arena (possibly recycled already).
    if (handle.epoch == run_epoch_) {
      if (depth_ > 0) {
        --depth_;
      }
      handle.slot->end = fastclock::NowNs();
    }
    EndOp();
  }

  // --- segment / interval transitions ----------------------------------
  // Each op reads the fast clock itself, after winning the handshake: a
  // time read before would belong to whatever run was current then.

  // Switches the interval this thread works on behalf of (segment split).
  void SwitchInterval(IntervalId sid);

  // Marks the thread blocked (lock/condvar/queue). EndBlocked closes the
  // blocked segment, records the wake-up edge, and resumes execution.
  // Nested Begin/End pairs (a condvar wait inside a queue wait, the lock
  // reacquisition after a wait) are counted and only the outermost pair is
  // recorded, keeping segments flat.
  void BeginBlocked(SegmentState state);
  void EndBlocked(ThreadId waker_tid, TimeNs waker_time);

  // Splits the current executing segment to attach a created-by edge for a
  // freshly dequeued task (paper's 4-tuple).
  void AttachGeneratorEdge(ThreadId producer_tid, TimeNs enqueue_time);

  // Switches to interval `sid`, which `from_tid` handed off at `from_time`:
  // the segment opened here carries a completion edge back to the hand-off
  // (EdgeKind::kCompletion). One op, one timestamp.
  void ResumeHandedOff(IntervalId sid, ThreadId from_tid, TimeNs from_time);

  // Records a semantic-interval begin/end annotation on this thread and
  // switches it to work on behalf of `next_sid`: one op, one timestamp.
  void RecordIntervalEvent(IntervalId sid, IntervalEventKind kind,
                           IntervalId next_sid, IntervalLabel label = kNoLabel);

  // --- run lifecycle (control thread; requires quiescence) --------------
  void ResetForRun(uint64_t run_epoch);
  // Closes any open segment and stitches the chunked buffers out.
  ThreadTrace Collect(TimeNs end_time);
  // Spins until no recording op is in flight on this thread. Must be called
  // after g_tracing was stored false (or before it is stored true), so no
  // new op can win the handshake.
  void WaitQuiescent() const;

  // Bounded variant: gives up after `timeout_ns` and returns false if the
  // owner is still mid-op (wedged or indefinitely preempted).
  bool WaitQuiescentFor(TimeNs timeout_ns) const;

  // Quarantine flag, owned by the control thread (under the runtime mutex).
  // A quarantined thread failed to quiesce: its buffers may be written at
  // any time and its contents may mix runs, so the control thread neither
  // collects nor resets them until the thread is observed quiescent at a
  // later StartTracing.
  bool quarantined() const { return quarantined_; }
  void set_quarantined(bool value) { quarantined_ = value; }

  // Set by the owning thread as it exits, as its last access to this
  // state. The first StartTracing that sees it frees the state.
  void MarkExited() { exited_.store(true, std::memory_order_release); }
  bool exited() const { return exited_.load(std::memory_order_acquire); }

 private:
  // Owner-side half of the epoch handshake; see file header. Returns false
  // (leaving busy_ clear) when tracing is off, i.e. recording must not touch
  // this state because the control thread may be reading it.
  //
  // Asymmetric mode moves the StoreLoad fence off the hot path: the probe
  // issues only plain stores/loads (with a compiler barrier), and the
  // control thread's sys_membarrier forces the ordering on every core
  // before it reads busy_. The acquire load of g_tracing still pairs with
  // StartTracing's release store, so buffer resets happen-before any op
  // that observes tracing on.
  bool BeginOp() {
    if (detail::g_asymmetric_quiesce.load(std::memory_order_relaxed)) {
      busy_.store(1, std::memory_order_relaxed);
      std::atomic_signal_fence(std::memory_order_seq_cst);
      if (g_tracing.load(std::memory_order_acquire)) [[likely]] {
        return true;
      }
    } else {
      busy_.store(1, std::memory_order_seq_cst);
      if (g_tracing.load(std::memory_order_seq_cst)) [[likely]] {
        return true;
      }
    }
    busy_.store(0, std::memory_order_release);
    return false;
  }
  void EndOp() { busy_.store(0, std::memory_order_release); }

  void EnsureSegmentOpen(TimeNs now);
  void CloseSegment(TimeNs now);
  void SwitchIntervalAt(IntervalId sid, TimeNs now);

  // Sentinel record_index for a stack frame whose invocation record was
  // dropped by the arena cap: descendants must not link to it.
  static constexpr uint32_t kDroppedRecord = 0xFFFFFFFFu;

  // Hot fields, ordered to keep the probe path in the first cache lines.
  std::atomic<uint32_t> busy_{0};
  int depth_ = 0;
  uint64_t run_epoch_ = 0;
  IntervalId current_sid_ = kNoInterval;
  ThreadId tid_;
  int block_depth_ = 0;

  // Open segment (start < 0 when none).
  TimeNs seg_start_ = -1;
  SegmentState seg_state_ = SegmentState::kExecuting;
  IntervalId seg_sid_ = kNoInterval;
  // Pending created-by (or completion) edge for the segment being opened.
  ThreadId pending_gen_tid_ = kNoThread;
  TimeNs pending_gen_time_ = -1;
  EdgeKind pending_gen_kind_ = EdgeKind::kCreatedBy;
  // Waker reported by an inner nested wait, consumed by the outermost
  // EndBlocked.
  ThreadId pending_waker_tid_ = kNoThread;
  TimeNs pending_waker_time_ = -1;

  // Append-only chunked arenas: no reallocation or copying on growth, so a
  // probe never pays a buffer-resize latency spike (see chunked_buffer.h).
  ChunkedBuffer<Invocation> invocations_;
  ChunkedBuffer<Segment> segments_;
  ChunkedBuffer<IntervalEvent> interval_events_;

  bool quarantined_ = false;
  std::atomic<bool> exited_{false};

  struct Frame {
    FuncId func;
    uint32_t record_index;
  };
  Frame stack_[kMaxProbeDepth];
};

// Returns this thread's state, creating and registering it on first use.
// Each state gets a ThreadId no other state of the process has had. When
// the thread exits, its state stays until StopTracing has collected its
// records, and the next StartTracing frees it.
ThreadState* CurrentThread();

// Per-thread states the runtime holds.
size_t ThreadStateCount();

// --- run control ----------------------------------------------------------

// Clears all buffers, re-arms the clock epoch, and begins recording.
void StartTracing();

// Stops recording and returns everything captured since StartTracing.
// Returns within the quiesce bound even if a probe thread is wedged mid-op:
// the wedged thread is quarantined (its records dropped, its tid reported in
// Trace::stuck_threads with a stderr diagnostic) and rejoins automatically
// at the first StartTracing that finds it quiescent again.
Trace StopTracing();

// Bounds how long Start/StopTracing wait for an unresponsive probe thread
// before quarantining it. ns <= 0 restores the default (250 ms).
void SetQuiesceTimeoutNs(int64_t ns);

// Caps each per-thread record arena (invocations, segments, interval events
// separately) at `cap` records for subsequent runs; 0 = unbounded.
// Overflowing records are dropped and counted on the resulting Trace.
void SetArenaRecordCap(size_t cap);

// Enables the DTrace-like always-on heavyweight tracer (see full_tracer.h).
// Used only by the overhead-comparison experiment.
void EnableFullTrace(bool enabled);

// --- semantic interval annotations (paper Section 3.1) ---------------------

// Annotation (1): a new semantic interval is created; the calling thread
// starts working on its behalf. Returns the new interval's id. The optional
// label classifies the interval (e.g. transaction type) so the analysis can
// compute per-type profiles.
IntervalId BeginInterval(IntervalLabel label = kNoLabel);

// Annotation (2): the semantic interval is complete. The calling thread
// reverts to background (no-interval) execution.
void EndInterval(IntervalId sid);

// Annotation (3): the calling thread starts executing on behalf of `sid`
// (task-based models; worker dequeues an event for the interval). Passing
// kNoInterval marks the thread as background again.
void WorkOnBehalf(IntervalId sid);

// The interval the calling thread currently works on behalf of.
IntervalId CurrentIntervalId();

// An interval in transit between threads: which interval, the thread that
// stopped working on it, and when. A thread that registers a completion
// (a pipelined commit, a deferred reply) captures it; the thread that runs
// the completion resumes it.
struct HandOff {
  IntervalId sid = kNoInterval;
  ThreadId tid = kNoThread;
  TimeNs time = -1;
};

// The calling thread's interval, handed off now. Carries kNoInterval when
// not tracing or when the thread works on no interval.
HandOff HandOffInterval();

// Works on behalf of a handed-off interval for the scope's lifetime, then
// returns to the interval the thread worked on before. The first segment
// carries a completion edge back to the hand-off, which the critical-path
// walker follows into this thread's own timeline (critical_path.h). A no-op
// when `from` carries no interval or the thread already works on it.
class ResumedInterval {
 public:
  explicit ResumedInterval(const HandOff& from);
  ~ResumedInterval();
  ResumedInterval(const ResumedInterval&) = delete;
  ResumedInterval& operator=(const ResumedInterval&) = delete;

 private:
  bool switched_ = false;
  IntervalId previous_ = kNoInterval;
};

// RAII wrapper: begins a semantic interval on construction and ends it on
// destruction. If the thread is already inside an interval, the scope joins
// it (no nested interval is created).
class IntervalScope {
 public:
  explicit IntervalScope(IntervalLabel label = kNoLabel) {
    if (CurrentIntervalId() == kNoInterval) {
      sid_ = BeginInterval(label);
    }
  }
  ~IntervalScope() {
    if (sid_ != kNoInterval) {
      EndInterval(sid_);
    }
  }
  IntervalScope(const IntervalScope&) = delete;
  IntervalScope& operator=(const IntervalScope&) = delete;

  IntervalId id() const { return sid_; }

 private:
  IntervalId sid_ = kNoInterval;
};

}  // namespace vprof

#endif  // SRC_VPROF_RUNTIME_H_
