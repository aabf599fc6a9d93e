#include "src/vprof/runtime.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/vprof/full_tracer.h"

#if defined(__linux__) && !defined(__SANITIZE_THREAD__)
#include <sys/syscall.h>
#include <unistd.h>
#define VPROF_HAVE_MEMBARRIER 1
#endif

namespace vprof {

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_full_trace{false};

namespace detail {
std::atomic<bool> g_asymmetric_quiesce{false};

void MaybeWedgeProbe() {
  if (fault::Triggered("vprof/probe_wedge")) {
    // Hold the op window (busy_ stays set) until the test disarms the
    // failpoint, simulating a probe stuck mid-record.
    while (fault::IsActive("vprof/probe_wedge")) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}
}  // namespace detail

namespace {

#ifdef VPROF_HAVE_MEMBARRIER
// Raw values from linux/membarrier.h, inlined so the build does not depend
// on kernel headers being installed.
constexpr long kMembarrierRegisterPrivateExpedited = 1 << 4;
constexpr long kMembarrierPrivateExpedited = 1 << 3;

bool RegisterQuiesceBarrier() {
  return syscall(__NR_membarrier, kMembarrierRegisterPrivateExpedited, 0, 0) ==
         0;
}

// Runs before main(), before any worker thread can exist, so every thread
// agrees on the handshake mode for the whole process lifetime.
struct EnableAsymmetricQuiesce {
  EnableAsymmetricQuiesce() {
    if (RegisterQuiesceBarrier()) {
      detail::g_asymmetric_quiesce.store(true, std::memory_order_relaxed);
    }
  }
};
EnableAsymmetricQuiesce g_enable_asymmetric_quiesce;
#endif

// Control-side StoreLoad fence for the asymmetric handshake: forces a full
// barrier on every core running a thread of this process. No-op (and not
// needed — both sides are seq_cst) when asymmetric mode is off.
void QuiesceBarrier() {
#ifdef VPROF_HAVE_MEMBARRIER
  if (detail::g_asymmetric_quiesce.load(std::memory_order_relaxed)) {
    syscall(__NR_membarrier, kMembarrierPrivateExpedited, 0, 0);
  }
#endif
}

struct RuntimeState {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadState>> threads;  // guarded by mu
  ThreadId next_tid = 0;                               // guarded by mu
  std::atomic<uint64_t> next_interval{1};
  uint64_t run_epoch = 0;  // guarded by mu
};

constexpr TimeNs kDefaultQuiesceTimeoutNs = 250'000'000;  // 250 ms
std::atomic<TimeNs> g_quiesce_timeout_ns{kDefaultQuiesceTimeoutNs};
std::atomic<size_t> g_arena_record_cap{0};

RuntimeState& State() {
  static RuntimeState* state = new RuntimeState();
  return *state;
}

thread_local ThreadState* tls_thread = nullptr;

// Destructor of the key below: runs as a thread exits, after the thread's
// C++ thread_local destructors, so a probe fired from one of those still
// records into the state. A probe fired later, from another key's
// destructor, registers a fresh state and sets the key again, so this runs
// again for that state.
void OnThreadExit(void* state) {
  tls_thread = nullptr;
  static_cast<ThreadState*>(state)->MarkExited();
}

// The key whose value is the thread's state; invalid when it could not be
// created, and then no state is ever freed.
struct ExitKey {
  ExitKey() { valid = pthread_key_create(&key, OnThreadExit) == 0; }
  pthread_key_t key{};
  bool valid = false;
};

const ExitKey& ThreadExitKey() {
  static const ExitKey key;
  return key;
}

// Stops recording and drains every in-flight op, waiting at most the
// configured bound per thread. A thread still mid-op after the bound is
// quarantined — its buffers may be written behind our back, so the control
// thread must neither read nor reset them. Returns the still-busy threads.
// Callers hold state.mu, so no new ThreadState can appear during the drain.
std::vector<ThreadState*> QuiesceLocked(RuntimeState& state) {
  g_tracing.store(false, std::memory_order_seq_cst);
  QuiesceBarrier();
  const TimeNs bound = g_quiesce_timeout_ns.load(std::memory_order_relaxed);
  std::vector<ThreadState*> wedged;
  for (auto& thread : state.threads) {
    if (thread->WaitQuiescentFor(bound)) {
      continue;
    }
    if (!thread->quarantined()) {
      thread->set_quarantined(true);
      std::fprintf(stderr,
                   "vprof: thread %d failed to quiesce within %lld ms; "
                   "quarantining its records\n",
                   static_cast<int>(thread->tid()),
                   static_cast<long long>(bound / 1'000'000));
    }
    wedged.push_back(thread.get());
  }
  return wedged;
}

}  // namespace

ThreadState* CurrentThread() {
  if (tls_thread == nullptr) {
    const ExitKey& exit_key = ThreadExitKey();
    RuntimeState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    auto owned = std::make_unique<ThreadState>(state.next_tid++);
    owned->ResetForRun(state.run_epoch);
    if (exit_key.valid) {
      pthread_setspecific(exit_key.key, owned.get());
    }
    tls_thread = owned.get();
    state.threads.push_back(std::move(owned));
  }
  return tls_thread;
}

size_t ThreadStateCount() {
  RuntimeState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.threads.size();
}

// --- ThreadState ------------------------------------------------------------

void ThreadState::ResetForRun(uint64_t run_epoch) {
  run_epoch_ = run_epoch;
  current_sid_ = kNoInterval;
  const size_t cap = g_arena_record_cap.load(std::memory_order_relaxed);
  invocations_.set_max_records(cap);
  segments_.set_max_records(cap);
  interval_events_.set_max_records(cap);
  invocations_.clear();
  segments_.clear();
  interval_events_.clear();
  depth_ = 0;
  block_depth_ = 0;
  seg_start_ = -1;
  seg_sid_ = kNoInterval;
  seg_state_ = SegmentState::kExecuting;
  pending_gen_tid_ = kNoThread;
  pending_gen_time_ = -1;
  pending_gen_kind_ = EdgeKind::kCreatedBy;
  pending_waker_tid_ = kNoThread;
  pending_waker_time_ = -1;
}

void ThreadState::WaitQuiescent() const {
  int spins = 0;
  while (busy_.load(std::memory_order_seq_cst) != 0) {
    // Ops never block, so this resolves within one append — unless the owner
    // was preempted mid-op, in which case yield the core to it.
    if (++spins > 256) {
      std::this_thread::yield();
    }
  }
}

bool ThreadState::WaitQuiescentFor(TimeNs timeout_ns) const {
  if (busy_.load(std::memory_order_seq_cst) == 0) {
    return true;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(timeout_ns);
  int spins = 0;
  while (busy_.load(std::memory_order_seq_cst) != 0) {
    if (++spins > 256) {
      std::this_thread::yield();
      if ((spins & 63) == 0 && std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
    }
  }
  return true;
}

void ThreadState::EnsureSegmentOpen(TimeNs now) {
  if (seg_start_ >= 0) {
    return;
  }
  seg_start_ = now;
  seg_sid_ = current_sid_;
  seg_state_ = SegmentState::kExecuting;
}

void ThreadState::CloseSegment(TimeNs now) {
  if (seg_start_ < 0) {
    return;
  }
  Segment* seg = segments_.AppendSlot();
  seg->start = seg_start_;
  seg->end = now;
  seg->sid = seg_sid_;
  seg->state = seg_state_;
  // A pending created-by edge belongs to the dequeued task's execution, which
  // is the first *interval-labeled* segment after the dequeue. The consumer
  // relabels via WorkOnBehalf after Pop, so the unlabeled sliver between the
  // two must not consume the edge.
  if (seg_sid_ != kNoInterval) {
    seg->edge_kind = pending_gen_kind_;
    seg->generator_tid = pending_gen_tid_;
    seg->generator_time = pending_gen_time_;
    pending_gen_tid_ = kNoThread;
    pending_gen_time_ = -1;
    pending_gen_kind_ = EdgeKind::kCreatedBy;
  } else {
    seg->edge_kind = EdgeKind::kCreatedBy;
    seg->generator_tid = kNoThread;
    seg->generator_time = -1;
  }
  seg_start_ = -1;
}

void ThreadState::SwitchIntervalAt(IntervalId sid, TimeNs now) {
  if (sid != current_sid_ || seg_start_ < 0) {
    CloseSegment(now);
    current_sid_ = sid;
    EnsureSegmentOpen(now);
  }
}

void ThreadState::SwitchInterval(IntervalId sid) {
  if (!BeginOp()) {
    return;
  }
  SwitchIntervalAt(sid, fastclock::NowNs());
  EndOp();
}

void ThreadState::BeginBlocked(SegmentState state) {
  if (!BeginOp()) {
    return;
  }
  const TimeNs now = fastclock::NowNs();
  if (block_depth_++ == 0) {
    CloseSegment(now);
    seg_start_ = now;
    seg_sid_ = current_sid_;
    seg_state_ = state;
  }
  EndOp();
}

void ThreadState::EndBlocked(ThreadId waker_tid, TimeNs waker_time) {
  if (!BeginOp()) {
    return;
  }
  const TimeNs now = fastclock::NowNs();
  if (block_depth_ > 0 && --block_depth_ > 0) {
    // Inner waits keep the outermost blocked segment open, but remember the
    // most recent waker: it is the event that actually freed the thread.
    pending_waker_tid_ = waker_tid;
    pending_waker_time_ = waker_time;
    EndOp();
    return;
  }
  if (waker_tid == kNoThread && pending_waker_tid_ != kNoThread) {
    waker_tid = pending_waker_tid_;
    waker_time = pending_waker_time_;
  }
  pending_waker_tid_ = kNoThread;
  pending_waker_time_ = -1;
  if (seg_start_ >= 0) {
    Segment* seg = segments_.AppendSlot();
    seg->start = seg_start_;
    seg->end = now;
    seg->sid = seg_sid_;
    seg->state = seg_state_;
    seg->waker_tid = waker_tid;
    seg->waker_time = waker_time;
    seg_start_ = -1;
  }
  EnsureSegmentOpen(now);
  EndOp();
}

void ThreadState::AttachGeneratorEdge(ThreadId producer_tid,
                                      TimeNs enqueue_time) {
  if (!BeginOp()) {
    return;
  }
  const TimeNs now = fastclock::NowNs();
  CloseSegment(now);
  pending_gen_tid_ = producer_tid;
  pending_gen_time_ = enqueue_time;
  EnsureSegmentOpen(now);
  EndOp();
}

void ThreadState::ResumeHandedOff(IntervalId sid, ThreadId from_tid,
                                  TimeNs from_time) {
  if (!BeginOp()) {
    return;
  }
  const TimeNs now = fastclock::NowNs();
  CloseSegment(now);
  pending_gen_tid_ = from_tid;
  pending_gen_time_ = from_time;
  pending_gen_kind_ = EdgeKind::kCompletion;
  current_sid_ = sid;
  EnsureSegmentOpen(now);
  EndOp();
}

void ThreadState::RecordIntervalEvent(IntervalId sid, IntervalEventKind kind,
                                      IntervalId next_sid,
                                      IntervalLabel label) {
  if (!BeginOp()) {
    return;
  }
  const TimeNs now = fastclock::NowNs();
  *interval_events_.AppendSlot() = IntervalEvent{sid, now, kind, label};
  SwitchIntervalAt(next_sid, now);
  EndOp();
}

ThreadTrace ThreadState::Collect(TimeNs end_time) {
  CloseSegment(end_time);
  ThreadTrace out;
  out.tid = tid_;
  invocations_.CopyTo(&out.invocations);
  segments_.CopyTo(&out.segments);
  interval_events_.CopyTo(&out.interval_events);
  out.dropped_records = invocations_.dropped() + segments_.dropped() +
                        interval_events_.dropped();
  // Clamp invocations still open at stop time.
  for (Invocation& inv : out.invocations) {
    if (inv.end < 0) {
      inv.end = end_time;
    }
  }
  return out;
}

// --- run control ------------------------------------------------------------

void StartTracing() {
  RuntimeState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  const std::vector<ThreadState*> wedged = QuiesceLocked(state);
  ++state.run_epoch;
  // An exited thread records nothing more, and StopTracing has collected
  // what it recorded in the run it ended in.
  std::erase_if(state.threads, [](const std::unique_ptr<ThreadState>& t) {
    return t->exited();
  });
  for (auto& thread : state.threads) {
    if (std::find(wedged.begin(), wedged.end(), thread.get()) !=
        wedged.end()) {
      // Still mid-op: leave its buffers alone; it stays quarantined and its
      // records are ignored until a later StartTracing finds it quiescent.
      continue;
    }
    thread->set_quarantined(false);
    thread->ResetForRun(state.run_epoch);
  }
  state.next_interval.store(1, std::memory_order_relaxed);
  fastclock::ResetEpoch();
  ResetFullTracer();
  g_tracing.store(true, std::memory_order_seq_cst);
}

Trace StopTracing() {
  RuntimeState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  QuiesceLocked(state);
  const TimeNs end_time = Now();
  Trace trace;
  trace.duration = end_time;
  trace.function_names = AllFunctionNames();
  for (auto& thread : state.threads) {
    if (thread->quarantined()) {
      trace.stuck_threads.push_back(thread->tid());
      continue;
    }
    ThreadTrace tt = thread->Collect(end_time);
    if (!tt.invocations.empty() || !tt.segments.empty() ||
        !tt.interval_events.empty()) {
      trace.threads.push_back(std::move(tt));
    }
  }
  return trace;
}

void SetQuiesceTimeoutNs(int64_t ns) {
  g_quiesce_timeout_ns.store(ns <= 0 ? kDefaultQuiesceTimeoutNs : ns,
                             std::memory_order_relaxed);
}

void SetArenaRecordCap(size_t cap) {
  g_arena_record_cap.store(cap, std::memory_order_relaxed);
}

void EnableFullTrace(bool enabled) {
  g_full_trace.store(enabled, std::memory_order_seq_cst);
}

// --- interval annotations ----------------------------------------------------

IntervalId BeginInterval(IntervalLabel label) {
  if (!IsTracing()) {
    return kNoInterval;
  }
  RuntimeState& state = State();
  const IntervalId sid = state.next_interval.fetch_add(1, std::memory_order_relaxed);
  CurrentThread()->RecordIntervalEvent(sid, IntervalEventKind::kBegin, sid,
                                       label);
  return sid;
}

void EndInterval(IntervalId sid) {
  if (!IsTracing() || sid == kNoInterval) {
    return;
  }
  CurrentThread()->RecordIntervalEvent(sid, IntervalEventKind::kEnd,
                                       kNoInterval);
}

void WorkOnBehalf(IntervalId sid) {
  if (!IsTracing()) {
    return;
  }
  CurrentThread()->SwitchInterval(sid);
}

IntervalId CurrentIntervalId() {
  if (!IsTracing()) {
    return kNoInterval;
  }
  return CurrentThread()->current_sid();
}

HandOff HandOffInterval() {
  if (!IsTracing()) {
    return HandOff{};
  }
  ThreadState* thread = CurrentThread();
  return HandOff{thread->current_sid(), thread->tid(), Now()};
}

ResumedInterval::ResumedInterval(const HandOff& from) {
  if (from.sid == kNoInterval || !IsTracing()) {
    return;
  }
  ThreadState* thread = CurrentThread();
  previous_ = thread->current_sid();
  if (previous_ != from.sid) {
    thread->ResumeHandedOff(from.sid, from.tid, from.time);
    switched_ = true;
  }
}

ResumedInterval::~ResumedInterval() {
  if (switched_) {
    WorkOnBehalf(previous_);
  }
}

}  // namespace vprof
