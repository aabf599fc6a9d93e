#include "src/vprof/analysis/pool.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace vprof {
namespace {

std::atomic<uint64_t> g_worker_blocks{0};

// InlineBlocks alive on this thread.
thread_local int t_inline_scopes = 0;

// One RunBlocks call. It lives on the caller's stack, which the caller
// leaves only after every worker that joined the job has left it.
struct Job {
  const std::function<void(size_t)>* body = nullptr;
  size_t blocks = 0;
  std::atomic<size_t> next{0};  // the next unclaimed block
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu: the first block failure
};

// Claims and runs blocks until none is left; returns how many it ran.
size_t Drain(Job* job) {
  size_t ran = 0;
  for (size_t b = job->next.fetch_add(1, std::memory_order_relaxed);
       b < job->blocks; b = job->next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      (*job->body)(b);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job->error_mu);
      if (!job->error) {
        job->error = std::current_exception();
      }
      job->next.store(job->blocks, std::memory_order_relaxed);
    }
    ++ran;
  }
  return ran;
}

class Pool {
 public:
  // Never destroyed: the workers live as long as the process, and a child
  // process after fork() has none of them to join at exit.
  static Pool& Instance() {
    static Pool* const pool = new Pool();
    return *pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() = delete;

  // Offers `job` to the workers; false when there are none to offer it to
  // (no workers, a forked child, or the pool is busy with another job).
  bool Post(Job* job) {
    if (workers_.empty() || ::getpid() != pid_) {
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (job_ != nullptr || active_ > 0) {
        return false;
      }
      job_ = job;
      ++posted_;
    }
    work_cv_.notify_all();
    return true;
  }

  // Withdraws the posted job and waits until the workers inside it leave.
  void Retire() {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;
    idle_cv_.wait(lock, [this] { return active_ == 0; });
  }

 private:
  Pool() : pid_(::getpid()) {
    // The main thread's mask: the thread that first runs blocks may have
    // been narrowed to fewer CPUs than the process may use.
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(pid_, sizeof(cpus), &cpus) != 0) {
      return;
    }
    workers_.reserve(static_cast<size_t>(CPU_COUNT(&cpus)));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &cpus)) {
        continue;
      }
      try {
        workers_.emplace_back([this, cpu] { Work(cpu); });
      } catch (const std::system_error&) {
        break;  // run with the workers that could be started
      }
    }
  }

  void Work(int cpu) {
    cpu_set_t own;
    CPU_ZERO(&own);
    CPU_SET(cpu, &own);
    // Left unbound if refused: slower to wake, still correct.
    pthread_setaffinity_np(pthread_self(), sizeof(own), &own);
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return job_ != nullptr && posted_ != seen; });
      seen = posted_;
      Job* const job = job_;
      ++active_;
      lock.unlock();
      g_worker_blocks.fetch_add(Drain(job), std::memory_order_relaxed);
      lock.lock();
      if (--active_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }

  const pid_t pid_;
  std::mutex mu_;
  Job* job_ = nullptr;    // guarded by mu_: the job open to workers
  uint64_t posted_ = 0;   // guarded by mu_: jobs posted so far
  int active_ = 0;        // guarded by mu_: workers inside a job
  std::condition_variable work_cv_;  // a job was posted
  std::condition_variable idle_cv_;  // active_ fell to zero
  std::vector<std::thread> workers_;  // last: they use the members above
};

}  // namespace

void RunBlocks(size_t blocks, const std::function<void(size_t block)>& body) {
  Job job;
  job.body = &body;
  job.blocks = blocks;
  Pool* const pool =
      blocks >= 2 && t_inline_scopes == 0 ? &Pool::Instance() : nullptr;
  const bool posted = pool != nullptr && pool->Post(&job);
  Drain(&job);
  if (posted) {
    pool->Retire();
  }
  if (job.error) {
    std::rethrow_exception(job.error);
  }
}

uint64_t BlocksRunOnWorkers() {
  return g_worker_blocks.load(std::memory_order_relaxed);
}

InlineBlocks::InlineBlocks() { ++t_inline_scopes; }

InlineBlocks::~InlineBlocks() { --t_inline_scopes; }

}  // namespace vprof
