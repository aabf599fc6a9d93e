#include "src/vprof/analysis/pool.h"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace vprof {
namespace {

TEST(AnalysisPoolTest, EveryBlockRunsExactlyOnce) {
  for (const size_t blocks : {0, 1, 2, 3, 1000}) {
    std::vector<std::atomic<int>> runs(blocks);
    RunBlocks(blocks, [&](size_t b) { runs[b].fetch_add(1); });
    for (size_t b = 0; b < blocks; ++b) {
      EXPECT_EQ(runs[b].load(), 1) << "block " << b << " of " << blocks;
    }
  }
}

TEST(AnalysisPoolTest, BlocksRunOnWorkers) {
  // Neither block returns until both have started, so the caller cannot run
  // them both: a worker must take one.
  const uint64_t before = BlocksRunOnWorkers();
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::vector<std::thread::id> ran_on(2);
  RunBlocks(2, [&](size_t b) {
    ran_on[b] = std::this_thread::get_id();
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_TRUE(ran_on[0] != caller || ran_on[1] != caller);
  EXPECT_GE(BlocksRunOnWorkers() - before, 1u);
}

TEST(AnalysisPoolTest, NestedCallsRunInline) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<std::atomic<int>> runs(kOuter * kInner);
  RunBlocks(kOuter, [&](size_t outer) {
    RunBlocks(kInner,
              [&](size_t inner) { runs[outer * kInner + inner].fetch_add(1); });
  });
  for (const std::atomic<int>& r : runs) {
    EXPECT_EQ(r.load(), 1);
  }
}

TEST(AnalysisPoolTest, InlineBlocksKeepsEveryBlockOnTheCaller) {
  constexpr size_t kBlocks = 64;
  const uint64_t before = BlocksRunOnWorkers();
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<size_t> next{0};
  std::vector<size_t> position(kBlocks);
  std::vector<std::thread::id> ran_on(kBlocks);
  {
    const InlineBlocks outer;
    {
      const InlineBlocks inner;
    }
    // Still inline after an inner scope ends.
    RunBlocks(kBlocks, [&](size_t b) {
      position[b] = next.fetch_add(1);
      ran_on[b] = std::this_thread::get_id();
      if (b == 0) {
        // Long enough for a woken worker, were there one, to claim block 1.
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
        while (next.load() < 2 && std::chrono::steady_clock::now() < until) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (size_t b = 0; b < kBlocks; ++b) {
    EXPECT_EQ(position[b], b);
    EXPECT_EQ(ran_on[b], caller);
  }
  EXPECT_EQ(BlocksRunOnWorkers(), before);

  // Other threads are not affected by this thread's scope.
  const InlineBlocks here;
  std::thread other([] {
    const uint64_t other_before = BlocksRunOnWorkers();
    std::atomic<int> started{0};
    RunBlocks(2, [&](size_t) {
      started.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (started.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
    EXPECT_GE(BlocksRunOnWorkers() - other_before, 1u);
  });
  other.join();
}

TEST(AnalysisPoolTest, ConcurrentCallersEachGetEveryBlock) {
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr size_t kBlocks = 64;
  std::vector<int> wrong(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<size_t> out(kBlocks, 0);
        RunBlocks(kBlocks, [&](size_t b) { out[b] = b * b + 1; });
        for (size_t b = 0; b < kBlocks; ++b) {
          wrong[c] += out[b] == b * b + 1 ? 0 : 1;
        }
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(wrong[c], 0) << "caller " << c;
  }
}

TEST(AnalysisPoolTest, ABlockFailureReachesTheCaller) {
  std::atomic<int> ran{0};
  EXPECT_THROW(RunBlocks(100,
                         [&](size_t b) {
                           ran.fetch_add(1);
                           if (b == 3) {
                             throw std::runtime_error("block 3");
                           }
                         }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 4);
  // The pool is free for the next caller.
  std::vector<std::atomic<int>> runs(8);
  RunBlocks(runs.size(), [&](size_t b) { runs[b].fetch_add(1); });
  for (const std::atomic<int>& r : runs) {
    EXPECT_EQ(r.load(), 1);
  }
}

TEST(AnalysisPoolTest, ForkedChildRunsBlocksItself) {
  RunBlocks(4, [](size_t) {});  // the parent's workers exist
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::alarm(20);  // a child that waited for the parent's workers would hang
    std::vector<int> runs(64, 0);
    RunBlocks(runs.size(), [&](size_t b) { ++runs[b]; });
    for (const int r : runs) {
      if (r != 1) {
        ::_exit(1);
      }
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace vprof
