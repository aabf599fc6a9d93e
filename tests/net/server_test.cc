// NetServer end-to-end over real loopback sockets: request/reply for all
// three engine adapters, the httpd adapter's single hand-off, pipelining
// with out-of-order reply matching, dispatch-queue shedding (503),
// protocol-violation handling, and idle eviction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/httpd/server.h"
#include "src/minidb/engine.h"
#include "src/minipg/engine.h"
#include "src/net/client.h"
#include "src/net/frontend.h"
#include "src/net/server.h"

namespace net {
namespace {

using namespace std::chrono_literals;

Frame TxnRequestFrame(uint64_t request_id) {
  Frame frame;
  frame.type = MsgType::kTxn;
  frame.request_id = request_id;
  frame.txn.type = minidb::TxnType::kPayment;
  frame.txn.warehouse = 0;
  frame.txn.district = 0;
  frame.txn.customer = 1;
  return frame;
}

TEST(NetServerTest, MinidbExecutesTransactionsOverTheWire) {
  minidb::Engine engine(minidb::EngineConfig::MemoryResident());
  NetServer server(NetServerOptions{}, MakeMinidbHandler(&engine));
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.port(), 0);

  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (uint64_t id = 1; id <= 5; ++id) {
    Frame reply;
    ASSERT_TRUE(client.Call(TxnRequestFrame(id), &reply));
    EXPECT_EQ(reply.type, MsgType::kTxnReply);
    EXPECT_EQ(reply.request_id, id);
    EXPECT_EQ(reply.status, 0) << "payment should commit";
  }
  client.Close();
  server.Shutdown();

  const NetServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.dispatched, 5u);
  EXPECT_EQ(stats.replies_sent, 5u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(NetServerTest, MinipgAndHttpdAdaptersAnswer) {
  {
    minipg::PgEngine engine(minipg::PgConfig{});
    NetServer server(NetServerOptions{}, MakeMinipgHandler(&engine));
    ASSERT_TRUE(server.Start());
    BlockingClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    Frame reply;
    ASSERT_TRUE(client.Call(TxnRequestFrame(1), &reply));
    EXPECT_EQ(reply.type, MsgType::kTxnReply);
    client.Close();
    server.Shutdown();
  }
  {
    httpd::HttpServer http(httpd::HttpdConfig{});
    NetServer server(NetServerOptions{}, MakeHttpdHandler(&http));
    ASSERT_TRUE(server.Start());
    BlockingClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    Frame request;
    request.type = MsgType::kHttpGet;
    request.request_id = 9;
    request.file_id = 1;
    Frame reply;
    ASSERT_TRUE(client.Call(request, &reply));
    EXPECT_EQ(reply.type, MsgType::kHttpReply);
    EXPECT_EQ(reply.request_id, 9u);
    client.Close();
    server.Shutdown();
    http.Shutdown();
  }
}

TEST(NetServerTest, HttpdGetCrossesOneHandOff) {
  // httpd serves on the worker that dequeued the request, so each traced
  // GET's interval sits on the loop thread and that worker, joined by the
  // dispatch queue's one created-by edge.
  httpd::HttpServer http(httpd::HttpdConfig{});
  NetServerOptions options;
  options.workers = 2;
  NetServer server(options, MakeHttpdHandler(&http));
  ASSERT_TRUE(server.Start());
  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  constexpr uint64_t kGets = 20;
  vprof::StartTracing();
  for (uint64_t id = 1; id <= kGets; ++id) {
    Frame request;
    request.type = MsgType::kHttpGet;
    request.request_id = id;
    request.file_id = id % 4;
    Frame reply;
    ASSERT_TRUE(client.Call(request, &reply));
    EXPECT_EQ(reply.type, MsgType::kHttpReply);
  }
  const vprof::Trace trace = vprof::StopTracing();
  client.Close();
  server.Shutdown();

  std::map<vprof::IntervalId, std::set<vprof::ThreadId>> threads;
  std::map<vprof::IntervalId, int> edges;
  for (const vprof::ThreadTrace& thread : trace.threads) {
    for (const vprof::Segment& seg : thread.segments) {
      if (seg.sid == vprof::kNoInterval) {
        continue;
      }
      threads[seg.sid].insert(thread.tid);
      edges[seg.sid] += seg.generator_tid != vprof::kNoThread ? 1 : 0;
    }
  }
  ASSERT_EQ(threads.size(), kGets);
  for (const auto& [sid, tids] : threads) {
    EXPECT_EQ(tids.size(), 2u) << "threads of interval " << sid;
    EXPECT_EQ(edges[sid], 1) << "created-by edges of interval " << sid;
  }
}

TEST(NetServerTest, PingPongAndPipelinedRepliesMatchByRequestId) {
  // A deliberately slow, parallel handler so pipelined replies can return
  // out of order; the request_id echo is what keeps clients sane.
  NetServerOptions options;
  options.workers = 4;
  NetServer server(options, [](const Frame& request) {
    if (request.request_id % 2 == 1) {
      std::this_thread::sleep_for(20ms);
    }
    Frame reply;
    reply.type = MsgType::kTxnReply;
    reply.value = request.request_id * 100;
    return reply;
  });
  ASSERT_TRUE(server.Start());

  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  Frame ping;
  ping.type = MsgType::kPing;
  ping.request_id = 42;
  Frame pong;
  ASSERT_TRUE(client.Call(ping, &pong));
  EXPECT_EQ(pong.type, MsgType::kPong);
  EXPECT_EQ(pong.request_id, 42u);

  constexpr uint64_t kPipelined = 8;
  for (uint64_t id = 1; id <= kPipelined; ++id) {
    Frame request = TxnRequestFrame(id);
    ASSERT_TRUE(client.Send(request));
  }
  std::vector<bool> seen(kPipelined + 1, false);
  for (uint64_t i = 0; i < kPipelined; ++i) {
    Frame reply;
    ASSERT_TRUE(client.Recv(&reply));
    ASSERT_GE(reply.request_id, 1u);
    ASSERT_LE(reply.request_id, kPipelined);
    EXPECT_FALSE(seen[reply.request_id]) << "duplicate reply";
    seen[reply.request_id] = true;
    EXPECT_EQ(reply.value, reply.request_id * 100);
  }
  client.Close();
  server.Shutdown();
}

TEST(NetServerTest, ShedsWithRejectedWhenDispatchQueueIsFull) {
  std::atomic<bool> release{false};
  NetServerOptions options;
  options.workers = 1;
  options.max_dispatch_depth = 2;
  NetServer server(options, [&release](const Frame&) {
    while (!release.load()) {
      std::this_thread::sleep_for(1ms);
    }
    Frame reply;
    reply.type = MsgType::kTxnReply;
    return reply;
  });
  ASSERT_TRUE(server.Start());

  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // 1 in the worker + 2 queued; everything beyond must shed.
  constexpr uint64_t kBurst = 10;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    ASSERT_TRUE(client.Send(TxnRequestFrame(id)));
  }
  uint64_t rejected = 0;
  // Rejections come back immediately, before the worker is released.
  Frame reply;
  while (client.Recv(&reply, 500)) {
    if (reply.type == MsgType::kRejected) {
      ++rejected;
    }
    if (rejected >= kBurst - 3) {
      break;
    }
  }
  EXPECT_GE(rejected, kBurst - 3);
  release.store(true);
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.stats().rejected + server.stats().replies_sent +
                server.stats().replies_dropped,
            kBurst);
}

TEST(NetServerTest, ProtocolViolationGetsTypedErrorThenClose) {
  minidb::Engine engine(minidb::EngineConfig::MemoryResident());
  NetServer server(NetServerOptions{}, MakeMinidbHandler(&engine));
  ASSERT_TRUE(server.Start());

  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // A frame with an unknown type byte.
  const char garbage[] = {9, 0, 0, 0, 77, 1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(client.SendRaw(garbage, sizeof(garbage)));
  Frame reply;
  ASSERT_TRUE(client.Recv(&reply));
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.error, static_cast<uint8_t>(WireError::kBadType));
  // The server closes after flushing the error: next recv sees EOF.
  EXPECT_FALSE(client.Recv(&reply, 2000));
  client.Close();

  // Reply types sent to the server are violations too, even though they
  // decode cleanly.
  BlockingClient second;
  ASSERT_TRUE(second.Connect(server.port()));
  Frame pong;
  pong.type = MsgType::kPong;
  pong.request_id = 1;
  ASSERT_TRUE(second.Send(pong));
  ASSERT_TRUE(second.Recv(&reply));
  EXPECT_EQ(reply.type, MsgType::kError);
  second.Close();
  server.Shutdown();
  EXPECT_GE(server.stats().protocol_errors, 2u);
}

TEST(NetServerTest, IdleConnectionsAreSweptOut) {
  NetServerOptions options;
  options.idle_timeout_ms = 80;
  options.sweep_interval_ms = 10;
  NetServer server(options, [](const Frame&) {
    Frame reply;
    reply.type = MsgType::kTxnReply;
    return reply;
  });
  ASSERT_TRUE(server.Start());

  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  Frame reply;
  ASSERT_TRUE(client.Call(TxnRequestFrame(1), &reply));

  // Go quiet past the timeout: the sweep must evict us (EOF on read).
  Frame never;
  EXPECT_FALSE(client.Recv(&never, 2000));
  client.Close();
  server.Shutdown();
  EXPECT_GE(server.stats().idle_evictions, 1u);
}

TEST(NetServerTest, ShutdownIsIdempotentAndDrainsInFlight) {
  minidb::Engine engine(minidb::EngineConfig::MemoryResident());
  NetServerOptions options;
  options.workers = 2;
  NetServer server(options, MakeMinidbHandler(&engine));
  ASSERT_TRUE(server.Start());

  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(client.Send(TxnRequestFrame(id)));
  }
  server.Shutdown();
  server.Shutdown();  // idempotent
  SUCCEED();
}

}  // namespace
}  // namespace net
