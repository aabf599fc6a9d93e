// Instrumented task queue for task-based/event-based concurrency.
//
// Push records the producer thread and enqueue time; Pop attaches the
// "created-by" edge <producer_tid, t_enqueue, consumer_tid, t_dequeue> to the
// consumer's next interval-labeled segment, letting the analysis distinguish
// queueing delay from execution (paper Sections 3.1 and 3.3.2). A worker that
// dequeues a task for a semantic interval must follow Pop with
// WorkOnBehalf(sid): the edge is held pending until the relabeled segment so
// the unlabeled sliver between Pop and WorkOnBehalf cannot swallow it.
// vprof::WorkerPool (worker_pool.h) is that worker.
#ifndef SRC_VPROF_TASK_QUEUE_H_
#define SRC_VPROF_TASK_QUEUE_H_

#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "src/vprof/runtime.h"
#include "src/vprof/sync.h"

namespace vprof {

template <typename T>
class TaskQueue {
 public:
  TaskQueue() = default;
  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  // Enqueues a task; wakes one waiting consumer. Dropped after Close().
  void Push(T item) {
    (void)PushIfBelow(std::move(item), std::numeric_limits<size_t>::max());
  }

  // Enqueues only while the queue is open and holds fewer than `limit`
  // entries; returns false (dropping the task) otherwise. The bounded
  // variant producers use to shed load instead of building an unbounded
  // backlog. After Close() it refuses every task: the consumers may already
  // have drained the queue and gone.
  bool PushIfBelow(T item, size_t limit) {
    const ThreadId producer =
        IsTracing() ? CurrentThread()->tid() : kNoThread;
    const TimeNs enqueue_time = IsTracing() ? Now() : -1;
    {
      std::lock_guard<Mutex> lock(mu_);
      if (closed_ || entries_.size() >= limit) {
        return false;
      }
      entries_.push_back(Entry{std::move(item), producer, enqueue_time});
    }
    cv_.NotifyOne();
    return true;
  }

  // Blocks until a task is available or the queue is closed. Returns
  // std::nullopt only after Close() with an empty queue.
  std::optional<T> Pop() {
    Entry entry;
    {
      std::lock_guard<Mutex> lock(mu_);
      if (entries_.empty() && !closed_) {
        WaitForWork();
      }
      if (entries_.empty()) {
        return std::nullopt;  // closed
      }
      entry = std::move(entries_.front());
      entries_.pop_front();
    }
    if (IsTracing() && entry.producer_tid != kNoThread) {
      CurrentThread()->AttachGeneratorEdge(entry.producer_tid,
                                           entry.enqueue_time);
    }
    return std::move(entry.item);
  }

  // Wakes all waiters; subsequent Pops drain the queue then return nullopt,
  // and subsequent pushes are refused.
  void Close() {
    {
      std::lock_guard<Mutex> lock(mu_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

  size_t Size() {
    std::lock_guard<Mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    T item{};
    ThreadId producer_tid = kNoThread;
    TimeNs enqueue_time = -1;
  };

  // Precondition: mu_ held, queue empty, not closed. Waits with the blocked
  // state kQueueWait so the analysis can classify the delay as queueing.
  void WaitForWork() {
    if (!IsTracing()) {
      cv_.Wait(mu_, [this] { return !entries_.empty() || closed_; });
      return;
    }
    ThreadState* thread = CurrentThread();
    thread->BeginBlocked(SegmentState::kQueueWait);
    cv_.Wait(mu_, [this] { return !entries_.empty() || closed_; });
    thread->EndBlocked(kNoThread, -1);
  }

  Mutex mu_;
  CondVar cv_;
  std::deque<Entry> entries_;
  bool closed_ = false;
};

}  // namespace vprof

#endif  // SRC_VPROF_TASK_QUEUE_H_
