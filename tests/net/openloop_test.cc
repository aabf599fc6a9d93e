// Satellite: open-loop statistical self-test. The generator's arrival
// schedules must have the statistics they claim — inter-arrival CV ≈ 1 for
// Poisson, CV > 1 for the bursty MMPP at a fixed seed, mean equal to the
// configured rate — and the driver's accounting must be exact at drain:
// sent == acked + rejected + failed + in_flight, always.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/net/frontend.h"
#include "src/net/server.h"
#include "src/statkit/summary.h"
#include "src/workload/openloop.h"

namespace workload {
namespace {

using namespace std::chrono_literals;

constexpr size_t kSamples = 20000;
constexpr uint64_t kSeed = 20260809;

ArrivalConfig Poisson(double rate) {
  ArrivalConfig config;
  config.process = ArrivalProcess::kPoisson;
  config.rate_per_sec = rate;
  return config;
}

ArrivalConfig Bursty(double rate) {
  ArrivalConfig config;
  config.process = ArrivalProcess::kBursty;
  config.rate_per_sec = rate;
  return config;
}

statkit::Summary SummarizeGaps(const std::vector<int64_t>& gaps) {
  return statkit::Summarize(std::vector<double>(gaps.begin(), gaps.end()));
}

TEST(OpenLoopArrivalsTest, PoissonInterArrivalCvIsNearOne) {
  const std::vector<int64_t> gaps =
      GenerateInterArrivalsNs(Poisson(2000.0), kSamples, kSeed);
  ASSERT_EQ(gaps.size(), kSamples);
  const double cv = SummarizeGaps(gaps).cv;
  // Exponential inter-arrivals: CV = 1 exactly in distribution; with 20k
  // samples the estimate lands well inside +-10%.
  EXPECT_GT(cv, 0.9);
  EXPECT_LT(cv, 1.1);
}

TEST(OpenLoopArrivalsTest, BurstyInterArrivalCvExceedsOne) {
  const std::vector<int64_t> gaps =
      GenerateInterArrivalsNs(Bursty(2000.0), kSamples, kSeed);
  const double cv = SummarizeGaps(gaps).cv;
  // MMPP mixes two exponential regimes: strictly overdispersed. The default
  // shape (8x burst, 10% duty) sits far above 1.
  EXPECT_GT(cv, 1.3) << "bursty schedule is not overdispersed";

  // And clearly burstier than the Poisson schedule at the same seed+rate.
  const double poisson_cv =
      SummarizeGaps(GenerateInterArrivalsNs(Poisson(2000.0), kSamples, kSeed))
          .cv;
  EXPECT_GT(cv, poisson_cv + 0.2);
}

TEST(OpenLoopArrivalsTest, MeanMatchesConfiguredRateForBothShapes) {
  {
    const std::vector<int64_t> gaps =
        GenerateInterArrivalsNs(Poisson(1500.0), kSamples, kSeed);
    const double expected_ns = 1e9 / 1500.0;
    EXPECT_NEAR(SummarizeGaps(gaps).mean, expected_ns, expected_ns * 0.08)
        << "poisson";
  }
  {
    // The MMPP's effective sample size is the number of calm/burst cycles
    // (~200 ms each at the default shape), not the number of gaps: at
    // 1500/s, 200k gaps span ~133 s ≈ 660 cycles whose exponential dwells
    // leave the sample mean with ~2.5% relative sigma. 15% is ~6 sigma.
    const std::vector<int64_t> gaps =
        GenerateInterArrivalsNs(Bursty(1500.0), 10 * kSamples, kSeed);
    const double expected_ns = 1e9 / 1500.0;
    EXPECT_NEAR(SummarizeGaps(gaps).mean, expected_ns, expected_ns * 0.15)
        << "bursty";
  }
}

TEST(OpenLoopArrivalsTest, SchedulesAreDeterministicInTheSeed) {
  const auto a = GenerateInterArrivalsNs(Bursty(1000.0), 5000, 123);
  const auto b = GenerateInterArrivalsNs(Bursty(1000.0), 5000, 123);
  const auto c = GenerateInterArrivalsNs(Bursty(1000.0), 5000, 124);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

net::Frame PingRequest(uint64_t) {
  net::Frame frame;
  frame.type = net::MsgType::kPing;
  return frame;
}

OpenLoopOptions DriverOptions(uint16_t port, double rate, size_t requests) {
  OpenLoopOptions options;
  options.port = port;
  options.connections = 16;
  options.total_requests = requests;
  options.arrivals = Poisson(rate);
  options.seed = kSeed;
  options.make_request = PingRequest;
  return options;
}

TEST(OpenLoopDriverTest, AccountingIsExactAtDrainWhenAllServed) {
  net::NetServer server(net::NetServerOptions{}, [](const net::Frame&) {
    net::Frame reply;
    reply.type = net::MsgType::kTxnReply;
    return reply;
  });
  ASSERT_TRUE(server.Start());

  const OpenLoopResult result =
      RunOpenLoop(DriverOptions(server.port(), 2000.0, 1000));
  server.Shutdown();

  ASSERT_FALSE(result.connect_failed);
  EXPECT_EQ(result.sent, 1000u);
  EXPECT_EQ(result.sent,
            result.acked + result.rejected + result.failed + result.in_flight);
  EXPECT_EQ(result.in_flight, 0u) << "healthy server must drain fully";
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.acked, result.latencies_ns.size());
  EXPECT_GT(result.achieved_per_s, 0.0);
}

TEST(OpenLoopDriverTest, AccountingIsExactUnderShedding) {
  // One slow worker + depth-2 queue: a 2000/s offered rate must shed.
  net::NetServerOptions server_options;
  server_options.workers = 1;
  server_options.max_dispatch_depth = 2;
  net::NetServer server(server_options, [](const net::Frame&) {
    std::this_thread::sleep_for(2ms);
    net::Frame reply;
    reply.type = net::MsgType::kTxnReply;
    return reply;
  });
  ASSERT_TRUE(server.Start());

  OpenLoopOptions options = DriverOptions(server.port(), 2000.0, 800);
  // kTxn requests go through the dispatch queue (pings answer inline).
  options.make_request = [](uint64_t) {
    net::Frame frame;
    frame.type = net::MsgType::kTxn;
    frame.txn.type = minidb::TxnType::kOrderStatus;
    return frame;
  };
  const OpenLoopResult result = RunOpenLoop(options);
  server.Shutdown();

  ASSERT_FALSE(result.connect_failed);
  EXPECT_EQ(result.sent,
            result.acked + result.rejected + result.failed + result.in_flight);
  EXPECT_GT(result.rejected, 0u) << "overload never shed";
  EXPECT_GT(result.acked, 0u);
  // Latencies are recorded only for acked requests.
  EXPECT_EQ(result.acked, result.latencies_ns.size());
}

TEST(OpenLoopDriverTest, DeadServerMidRunLandsInFailedNotLimbo) {
  auto server = std::make_unique<net::NetServer>(
      net::NetServerOptions{}, [](const net::Frame&) {
        net::Frame reply;
        reply.type = net::MsgType::kTxnReply;
        return reply;
      });
  ASSERT_TRUE(server->Start());
  const uint16_t port = server->port();

  // Shut the server down while the schedule is still running.
  std::thread killer([&server] {
    std::this_thread::sleep_for(150ms);
    server->Shutdown();
  });
  OpenLoopOptions options = DriverOptions(port, 1000.0, 600);
  options.drain_timeout_ms = 1000;
  const OpenLoopResult result = RunOpenLoop(options);
  killer.join();

  // Whatever happened, the books balance.
  EXPECT_EQ(result.sent,
            result.acked + result.rejected + result.failed + result.in_flight);
}

}  // namespace
}  // namespace workload
