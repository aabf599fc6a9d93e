#include "src/vprof/task_queue.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/simio/disk.h"

namespace vprof {
namespace {

class TaskQueueTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (IsTracing()) {
      StopTracing();
    }
  }
};

TEST_F(TaskQueueTest, FifoOrder) {
  TaskQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
}

TEST_F(TaskQueueTest, PushIfBelowRejectsAtLimit) {
  TaskQueue<int> q;
  EXPECT_TRUE(q.PushIfBelow(1, 2));
  EXPECT_TRUE(q.PushIfBelow(2, 2));
  EXPECT_FALSE(q.PushIfBelow(3, 2));  // queue holds 2 already
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_TRUE(q.PushIfBelow(3, 2));  // slot freed by the Pop
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
}

TEST_F(TaskQueueTest, CloseWakesBlockedConsumer) {
  TaskQueue<int> q;
  std::optional<int> result = 42;
  std::thread consumer([&] { result = q.Pop(); });
  simio::SleepUs(5000);
  q.Close();
  consumer.join();
  EXPECT_FALSE(result.has_value());
}

TEST_F(TaskQueueTest, DrainsBeforeCloseTakesEffect) {
  TaskQueue<int> q;
  q.Push(5);
  q.Close();
  EXPECT_EQ(q.Pop(), 5);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST_F(TaskQueueTest, ManyProducersManyConsumers) {
  TaskQueue<int> q;
  constexpr int kPerProducer = 2000;
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> workers;
  for (int p = 0; p < 3; ++p) {
    workers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.Push(p * kPerProducer + i);
      }
    });
  }
  std::atomic<int> consumed{0};
  for (int c = 0; c < 3; ++c) {
    workers.emplace_back([&] {
      while (auto item = q.Pop()) {
        sum.fetch_add(*item);
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < 3; ++p) {
    workers[static_cast<size_t>(p)].join();
  }
  q.Close();
  for (size_t c = 3; c < workers.size(); ++c) {
    workers[c].join();
  }
  EXPECT_EQ(consumed.load(), 3 * kPerProducer);
  const int64_t n = 3 * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST_F(TaskQueueTest, PopAttachesCreatedByEdge) {
  StartTracing();
  CurrentThread();
  TaskQueue<int> q;
  const ThreadId producer_tid = CurrentThread()->tid();
  std::thread consumer([&] {
    const auto item = q.Pop();
    ASSERT_TRUE(item.has_value());
    // The dequeue protocol: the edge attaches to the task's interval-labeled
    // execution, so the consumer relabels before doing the work.
    WorkOnBehalf(7);
    simio::SleepUs(1000);
    WorkOnBehalf(kNoInterval);
  });
  simio::SleepUs(5000);  // let the consumer block on the empty queue
  q.Push(1);
  consumer.join();
  const Trace trace = StopTracing();
  bool found_queue_wait = false;
  bool found_edge = false;
  for (const ThreadTrace& t : trace.threads) {
    for (const Segment& seg : t.segments) {
      if (seg.state == SegmentState::kQueueWait) {
        found_queue_wait = true;
      }
      if (seg.generator_tid == producer_tid && seg.generator_time >= 0) {
        found_edge = true;
        EXPECT_LE(seg.generator_time, seg.start);
      }
    }
  }
  EXPECT_TRUE(found_queue_wait);
  EXPECT_TRUE(found_edge);
}

TEST_F(TaskQueueTest, SizeReflectsContents) {
  TaskQueue<int> q;
  EXPECT_EQ(q.Size(), 0u);
  q.Push(1);
  q.Push(2);
  EXPECT_EQ(q.Size(), 2u);
  q.Pop();
  EXPECT_EQ(q.Size(), 1u);
}

}  // namespace
}  // namespace vprof
