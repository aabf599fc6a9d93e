// Worker pool behind one instrumented TaskQueue: the dispatch shape every
// server here shares (paper Section 3.3.2). A producer queues a task for a
// semantic interval; a worker dequeues it (Pop attaches the created-by
// edge), relabels its segment to the interval with WorkOnBehalf so the edge
// lands on it, and runs the handler fixed at construction.
//
// Two ways in:
//   - Submit hands over an interval the producer began; the handler ends
//     it, on the worker or on whichever thread it hands the interval to
//     (NetServer's dispatch, whose handler may hand a reply, and with it
//     the interval, to another thread).
//   - SubmitAndWait is the closed loop: it begins the interval, blocks until
//     a worker has run the handler, and ends the interval on the calling
//     thread (httpd's in-process listener).
// A task that finds max_depth tasks queued is shed and never runs. Shutdown
// closes the queue, lets the workers run every queued task, and joins them;
// from then on every task is shed.
#ifndef SRC_VPROF_WORKER_POOL_H_
#define SRC_VPROF_WORKER_POOL_H_

#include <cstddef>
#include <functional>
#include <latch>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/vprof/runtime.h"
#include "src/vprof/sync.h"
#include "src/vprof/task_queue.h"

namespace vprof {

template <typename T>
class WorkerPool {
 public:
  // Runs on a worker that works on behalf of `sid`.
  using Handler = std::function<void(IntervalId sid, T& task)>;

  // Starts `workers` threads and returns once each is in tids(). A
  // max_depth of 0 never sheds.
  WorkerPool(int workers, size_t max_depth, Handler handler)
      : max_depth_(max_depth == 0 ? std::numeric_limits<size_t>::max()
                                  : max_depth),
        handler_(std::move(handler)),
        tids_(static_cast<size_t>(workers)) {
    std::latch registered(workers);
    threads_.reserve(tids_.size());
    for (size_t i = 0; i < tids_.size(); ++i) {
      threads_.emplace_back([this, i, &registered] {
        tids_[i] = CurrentThread()->tid();
        registered.count_down();
        WorkerLoop();
      });
    }
    registered.wait();
  }

  ~WorkerPool() { Shutdown(); }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Queues `task` for interval `sid`, which the handler ends. Returns false
  // when shed (queue at max_depth, or Shutdown has begun); the interval
  // then stays the caller's.
  bool Submit(IntervalId sid, T task) {
    return queue_.PushIfBelow(Job{sid, std::move(task), nullptr}, max_depth_);
  }

  // Begins an interval, queues `task` and blocks until a worker has run it,
  // then ends the interval. Returns false when shed: the interval ends at
  // once, a short rejection the profiler still sees.
  bool SubmitAndWait(T task) {
    const IntervalId sid = BeginInterval();
    // Shared with the worker: Wait can return before Set has finished
    // notifying, so the event must outlive this frame (sync.h).
    auto done = std::make_shared<Event>();
    const bool queued =
        queue_.PushIfBelow(Job{sid, std::move(task), done}, max_depth_);
    if (queued) {
      done->Wait();
    }
    EndInterval(sid);
    return queued;
  }

  // Tasks queued and not yet taken by a worker.
  size_t depth() { return queue_.Size(); }

  // vprof tids of the workers; each is stable for the life of its thread.
  const std::vector<ThreadId>& tids() const { return tids_; }

  // Runs every queued task, then joins the workers. Idempotent; tasks
  // submitted afterwards are shed.
  void Shutdown() {
    queue_.Close();
    for (std::thread& worker : threads_) {
      worker.join();
    }
    threads_.clear();
  }

 private:
  struct Job {
    IntervalId sid = kNoInterval;
    T task{};
    std::shared_ptr<Event> done;  // SubmitAndWait's; null for Submit
  };

  void WorkerLoop() {
    while (std::optional<Job> job = queue_.Pop()) {
      WorkOnBehalf(job->sid);
      handler_(job->sid, job->task);
      if (job->done != nullptr) {
        job->done->Set();
      }
      WorkOnBehalf(kNoInterval);
    }
  }

  const size_t max_depth_;
  const Handler handler_;
  TaskQueue<Job> queue_;
  std::vector<ThreadId> tids_;
  std::vector<std::thread> threads_;
};

}  // namespace vprof

#endif  // SRC_VPROF_WORKER_POOL_H_
