// Satellite: event-loop stress, designed to run under TSan (scripts/check.sh
// --net). Three things race on purpose:
//   - connection churn: clients connect, pipeline a few requests, and close
//     (sometimes mid-reply) as fast as they can,
//   - tracing epoch flips: StartTracing/StopTracing cycles concurrently, so
//     interval begins, probe scopes, queue edges and reply handoffs straddle
//     epoch boundaries,
//   - engine stop / server shutdown racing in-flight requests.
// The handlers are stubs (plus a workers=1 minidb case — the btree is only
// TSan-clean single-writer): the subject under test is the front-end's
// synchronization, not the engines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/minidb/engine.h"
#include "src/net/client.h"
#include "src/net/frontend.h"
#include "src/net/server.h"
#include "src/vprof/runtime.h"

namespace net {
namespace {

using namespace std::chrono_literals;

Frame StubReply(const Frame& request) {
  Frame reply;
  reply.type = MsgType::kTxnReply;
  reply.value = request.request_id;
  return reply;
}

void ChurnClients(uint16_t port, std::atomic<bool>* stop, uint64_t seed) {
  uint64_t state = seed;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  while (!stop->load(std::memory_order_acquire)) {
    BlockingClient client;
    if (!client.Connect(port)) {
      std::this_thread::sleep_for(1ms);
      continue;
    }
    const uint64_t requests = 1 + next() % 3;
    for (uint64_t id = 1; id <= requests; ++id) {
      Frame request;
      request.type = MsgType::kTxn;
      request.request_id = id;
      request.txn.type = minidb::TxnType::kOrderStatus;
      if (!client.Send(request)) {
        break;
      }
    }
    if (next() % 4 != 0) {  // 3/4 read replies, 1/4 slam the door
      Frame reply;
      for (uint64_t i = 0; i < requests; ++i) {
        if (!client.Recv(&reply, 200)) {
          break;
        }
      }
    }
    client.Close();
  }
}

TEST(NetStressTest, ChurnVsTracingEpochFlips) {
  NetServerOptions options;
  options.workers = 2;
  options.max_dispatch_depth = 32;
  NetServer server(options, StubReply);
  ASSERT_TRUE(server.Start());

  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  for (int i = 0; i < 2; ++i) {
    churners.emplace_back(ChurnClients, server.port(), &stop,
                          0x1234 + 7777ull * i);
  }
  // Epoch flipper: every begin/end/probe/queue-edge in flight when the epoch
  // turns must either land in the old run or be dropped — never corrupt.
  std::thread flipper([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      vprof::StartTracing();
      std::this_thread::sleep_for(20ms);
      const vprof::Trace trace = vprof::StopTracing();
      (void)trace;
      std::this_thread::sleep_for(5ms);
    }
  });

  std::this_thread::sleep_for(1200ms);
  stop.store(true, std::memory_order_release);
  for (auto& churner : churners) {
    churner.join();
  }
  flipper.join();
  server.Shutdown();

  const NetServerStats stats = server.stats();
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.replies_sent + stats.replies_dropped + stats.rejected, 0u);
}

TEST(NetStressTest, ShutdownRacesInFlightRequests) {
  for (int round = 0; round < 5; ++round) {
    NetServerOptions options;
    options.workers = 2;
    NetServer server(options, [](const Frame& request) {
      std::this_thread::sleep_for(2ms);
      return StubReply(request);
    });
    ASSERT_TRUE(server.Start());

    std::atomic<bool> stop{false};
    std::thread churner(ChurnClients, server.port(), &stop, 0x9999 + round);
    std::this_thread::sleep_for(50ms);
    server.Shutdown();  // while the churner is mid-conversation
    stop.store(true, std::memory_order_release);
    churner.join();
  }
  SUCCEED();
}

TEST(NetStressTest, EngineStopUnderLoadAnswersEveryone) {
  // The race under test is Engine::Stop against requests mid-dispatch. Two
  // workers, so a commit's completion, and its reply, can run on the worker
  // leading the redo flush while the other keeps serving.
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  minidb::Engine engine(config);
  NetServerOptions options;
  options.workers = 2;
  NetServer server(options, MakeMinidbHandler(&engine));
  ASSERT_TRUE(server.Start());

  std::atomic<bool> stop{false};
  std::thread churner(ChurnClients, server.port(), &stop, 0xabcd);
  std::this_thread::sleep_for(150ms);
  engine.Stop();  // refuses new transactions; in-flight ones drain
  std::this_thread::sleep_for(100ms);
  stop.store(true, std::memory_order_release);
  churner.join();
  server.Shutdown();

  // The server stayed up throughout: post-Stop requests were answered (as
  // aborts), not dropped on the floor.
  EXPECT_GT(server.stats().replies_sent, 0u);
}

}  // namespace
}  // namespace net
