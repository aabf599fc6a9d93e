// Satellite: socket fault-injection. The net/* failpoints drive the accept,
// read and write paths into their failure branches deterministically; the
// assertions are the front-end's safety contract: no reply that was acked is
// ever lost or corrupted, no file descriptor leaks across connection churn
// and fault storms, and a peer that stops draining cannot stall anyone else
// (write-buffer-cap eviction + idle-timeout eviction).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/fault/failpoint.h"
#include "src/minidb/engine.h"
#include "src/net/client.h"
#include "src/net/frontend.h"
#include "src/net/server.h"
#include "src/net/socket.h"

namespace net {
namespace {

using namespace std::chrono_literals;

Frame PingFrame(uint64_t id) {
  Frame frame;
  frame.type = MsgType::kPing;
  frame.request_id = id;
  return frame;
}

Frame EchoReply(const Frame& request) {
  Frame reply;
  reply.type = MsgType::kTxnReply;
  reply.value = request.request_id * 7;
  return reply;
}

class NetFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DeactivateAll(); }
};

TEST_F(NetFaultTest, NoFdLeaksAcrossChurnAndFaults) {
  const int fds_before = CountOpenFds();
  ASSERT_GT(fds_before, 0);
  {
    NetServer server(NetServerOptions{}, EchoReply);
    ASSERT_TRUE(server.Start());

    // Clean churn.
    for (int round = 0; round < 20; ++round) {
      BlockingClient client;
      ASSERT_TRUE(client.Connect(server.port()));
      Frame reply;
      ASSERT_TRUE(client.Call(PingFrame(1), &reply));
      client.Close();
    }
    // Churn under protocol errors (server-side close path).
    for (int round = 0; round < 10; ++round) {
      BlockingClient client;
      ASSERT_TRUE(client.Connect(server.port()));
      const char garbage[] = {9, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0, 0};
      ASSERT_TRUE(client.SendRaw(garbage, sizeof(garbage)));
      Frame reply;
      client.Recv(&reply, 1000);  // kError, then EOF
      client.Close();
    }
    // Churn under injected read EOFs.
    fault::Activate("net/read_eof", fault::Trigger::EveryNth(3));
    for (int round = 0; round < 10; ++round) {
      BlockingClient client;
      ASSERT_TRUE(client.Connect(server.port()));
      Frame reply;
      client.Send(PingFrame(2));
      client.Recv(&reply, 200);  // may be answered or EOF'd; both fine
      client.Close();
    }
    fault::Deactivate("net/read_eof");
    server.Shutdown();
    EXPECT_GE(server.stats().read_eofs, 1u);
  }
  // Give the kernel a beat, then every descriptor must be back.
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(CountOpenFds(), fds_before);
}

TEST_F(NetFaultTest, AcceptErrorFailpointDropsConnectionsNotTheServer) {
  NetServer server(NetServerOptions{}, EchoReply);
  ASSERT_TRUE(server.Start());

  fault::Activate("net/accept_error", fault::Trigger::EveryNth(2));
  int served = 0;
  int dropped = 0;
  for (int round = 0; round < 10; ++round) {
    BlockingClient client;
    ASSERT_TRUE(client.Connect(server.port()));  // loopback always connects
    Frame reply;
    if (client.Call(PingFrame(1), &reply, 500)) {
      ++served;
    } else {
      ++dropped;  // the server closed the fd as if accept had failed
    }
    client.Close();
  }
  fault::Deactivate("net/accept_error");
  EXPECT_GT(served, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_GE(server.stats().accept_errors, 1u);

  // Disarmed: the accept path is healthy again.
  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  Frame reply;
  EXPECT_TRUE(client.Call(PingFrame(9), &reply));
  server.Shutdown();
}

TEST_F(NetFaultTest, ShortWritesLoseNoAckedReply) {
  NetServer server(NetServerOptions{}, EchoReply);
  ASSERT_TRUE(server.Start());

  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Every server write is truncated to 3 bytes: replies cross the wire in
  // dribbles across many EPOLLOUT rounds. All of them must still arrive
  // whole — the partial-write state machine may be slow, never lossy.
  fault::Activate("net/short_write", fault::Trigger::AlwaysWithValue(3));
  constexpr uint64_t kRequests = 20;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    Frame request;
    request.type = MsgType::kTxn;
    request.request_id = id;
    request.txn.type = minidb::TxnType::kOrderStatus;
    ASSERT_TRUE(client.Send(request));
  }
  uint64_t received = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    Frame reply;
    ASSERT_TRUE(client.Recv(&reply, 5000)) << "reply " << i << " lost";
    EXPECT_EQ(reply.type, MsgType::kTxnReply);
    EXPECT_EQ(reply.value, reply.request_id * 7) << "reply corrupted";
    ++received;
  }
  EXPECT_EQ(received, kRequests);
  fault::Deactivate("net/short_write");
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.stats().replies_sent, kRequests);
}

TEST_F(NetFaultTest, WriteBufferCapEvictsTheSlowPeer) {
  NetServerOptions options;
  options.write_buffer_cap = 256;  // ~a dozen reply frames
  NetServer server(options, EchoReply);
  ASSERT_TRUE(server.Start());

  BlockingClient victim;
  ASSERT_TRUE(victim.Connect(server.port()));

  // The peer "stops draining": every server write pretends EAGAIN, so each
  // reply lands in the connection outbox until the cap trips. The server
  // may evict the peer and close its socket before the last request is
  // sent, and a send after that fails.
  fault::Activate("net/slow_peer", fault::Trigger::Always());
  for (uint64_t id = 1; id <= 40; ++id) {
    if (!victim.Send(PingFrame(id))) {
      break;
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.stats().slow_peer_evictions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  fault::Deactivate("net/slow_peer");
  EXPECT_GE(server.stats().slow_peer_evictions, 1u);

  // The victim was closed; a fresh connection is served normally.
  Frame reply;
  EXPECT_FALSE(victim.Recv(&reply, 1000));
  victim.Close();
  BlockingClient healthy;
  ASSERT_TRUE(healthy.Connect(server.port()));
  EXPECT_TRUE(healthy.Call(PingFrame(99), &reply));
  server.Shutdown();
}

TEST_F(NetFaultTest, StuckPeerDoesNotStallOtherConnections) {
  NetServerOptions options;
  options.idle_timeout_ms = 150;
  options.sweep_interval_ms = 20;
  NetServer server(options, EchoReply);
  ASSERT_TRUE(server.Start());

  // A peer that connects and then does nothing — never reads, never writes.
  BlockingClient stuck;
  ASSERT_TRUE(stuck.Connect(server.port()));

  // Meanwhile a healthy client gets every answer promptly.
  BlockingClient healthy;
  ASSERT_TRUE(healthy.Connect(server.port()));
  for (uint64_t id = 1; id <= 50; ++id) {
    Frame reply;
    ASSERT_TRUE(healthy.Call(PingFrame(id), &reply, 1000))
        << "healthy connection stalled behind a stuck peer";
  }

  // And the stuck peer is eventually swept out by the idle timeout.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.stats().idle_evictions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(server.stats().idle_evictions, 1u);
  healthy.Close();
  stuck.Close();
  server.Shutdown();
}

}  // namespace
}  // namespace net
