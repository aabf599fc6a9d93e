// The two wire workloads: an engine behind net::NetServer with vprofd on,
// driven open-loop over loopback TCP by the benchmark's own client.
//
//   oltp_wire        minidb, 4 warehouses, memory-resident, eager flush and
//                    group commit on the default simulated log disk
//   pg_fastwal_wire  minipg, 1 WAL unit, group commit, serializable, on a
//                    zero-latency WAL device
//
// Untraced runs (--trace 0) report latency at a fixed Poisson rate, the
// saturated goodput, set-up time and peak memory. Traced runs (--trace 1)
// measure from outside: the
// benchmark times its own calls into the engine (the NetServer handler),
// takes before/after deltas of the modules' public stats counters, and keeps
// request, gen.late and handler spans in memory until exit.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "perfbench/client.h"
#include "perfbench/measure.h"
#include "src/minidb/engine.h"
#include "src/minipg/engine.h"
#include "src/net/frontend.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/statkit/rng.h"
#include "src/vprof/analysis/factor_selection.h"
#include "src/vprof/registry.h"
#include "src/vprof/service/vprofd.h"
#include "src/workload/tpcc.h"

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
// Deep enough to ride out a 200 ms stall at 10k req/s without shedding:
// vprofd rotations have been seen to stall the server for ~100 ms.
constexpr size_t kDispatchDepth = 2048;
// Requests in flight while measuring capacity: enough to keep both workers
// and the event loop busy, and below the dispatch depth so none is shed.
constexpr uint64_t kOutstanding = 256;
constexpr int kWarehouses = 4;
constexpr double kWarmupSeconds = 1.0;
// Share of an untraced run spent at the fixed rate; the rest measures
// capacity.
constexpr double kFixedShare = 0.7;
constexpr size_t kFramePool = 1 << 16;

struct WireSpec {
  bool minipg = false;
  double fixed_rate = 0.0;  // req/s of the latency measurement
  int setups = 0;           // set-ups of an untraced run; the median is setup_s
  // Most requests per second of the capacity phase, so that minidb's
  // preloaded keys (PreloadInsertKeys) cover the whole run; 0: no limit.
  double capacity_ceiling_rps = 0.0;
};

WireSpec SpecFor(const std::string& workload) {
  if (workload == "pg_fastwal_wire") {
    return WireSpec{true, 10000.0, 51, 0.0};
  }
  return WireSpec{false, 1200.0, 9, 5000.0};
}

// Requests the client writes in an open-loop pass (its own rounding).
uint64_t Requests(double rate, double seconds) {
  return static_cast<uint64_t>(rate * seconds);
}

// A WAL device that never sleeps: every sampled service time rounds to 0 ns.
simio::DiskConfig ZeroLatencyDisk(uint64_t seed) {
  simio::DiskConfig disk;
  disk.read_mu = -30.0;
  disk.write_mu = -30.0;
  disk.fsync_mu = -30.0;
  disk.fsync_spike_prob = 0.0;
  disk.bytes_per_us = 1e18;
  disk.seed = seed;
  return disk;
}

struct HandlerSpan {
  uint64_t request_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// The system under test plus the benchmark's handler wrapper. When
// `recording` is set the wrapper times each call into the engine; otherwise
// it costs one relaxed load.
class Stack {
 public:
  // `transactions` bounds the requests the run sends; minidb is preloaded
  // for that many.
  Stack(const WireSpec& spec, uint64_t seed, const std::string& history_dir,
        int64_t transactions)
      : graph_(std::make_shared<vprof::CallGraph>()) {
    if (spec.minipg) {
      minipg::PgConfig config;
      config.wal_units = 1;
      config.commit_mode = minipg::CommitMode::kGroupCommit;
      config.serializable = true;
      config.wal_disk = ZeroLatencyDisk(seed);
      config.seed = seed;
      pg_ = std::make_unique<minipg::PgEngine>(config);
      minipg::PgEngine::RegisterCallGraph(graph_.get());
      net::NetServer::RegisterNetCallGraph(graph_.get(), "exec_simple_query");
      inner_ = net::MakeMinipgHandler(pg_.get());
    } else {
      minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
      config.warehouses = kWarehouses;
      config.flush_policy = minidb::FlushPolicy::kEager;
      config.commit_mode = minidb::CommitMode::kGroupCommit;
      config.seed = seed;
      config.data_disk.seed = seed + 1;
      config.log_disk.seed = seed + 2;
      db_ = std::make_unique<minidb::Engine>(config);
      insert_rows_ = PreloadInsertKeys(db_.get(), transactions);
      minidb::Engine::RegisterCallGraph(graph_.get());
      net::NetServer::RegisterNetCallGraph(graph_.get(), "run_transaction");
      inner_ = net::MakeMinidbHandler(db_.get());
    }
    net::NetServerOptions options;
    options.workers = kWorkers;
    options.max_dispatch_depth = kDispatchDepth;
    server_ = std::make_unique<net::NetServer>(
        options, [this](const net::Frame& request) {
          if (!recording_.load(std::memory_order_relaxed)) {
            return inner_(request);
          }
          const int64_t start = NowNs();
          net::Frame reply = inner_(request);
          const int64_t end = NowNs();
          std::lock_guard<std::mutex> lock(spans_mu_);
          spans_.push_back({request.request_id, start, end});
          return reply;
        });

    vprof::VprofdOptions daemon;
    daemon.root_function = net::kNetRootFunc;
    daemon.graph = graph_;
    daemon.tree.path_options.queue_wait_factor = net::kQueueWaitFactor;
    daemon.history.dir = history_dir;
    vprofd_ = std::make_unique<vprof::Vprofd>(std::move(daemon));
  }

  ~Stack() { Stop(); }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool Start() {
    if (!server_->Start()) return false;
    vprofd_->Start();
    return true;
  }

  // Server first (drains in-flight requests), then the profiler, then the
  // engine's log. Idempotent.
  void Stop() {
    server_->Shutdown();
    vprofd_->Stop();
    vprof::DisableAllFunctions();
    if (db_) db_->Stop();
    if (pg_) pg_->Stop();
  }

  void StopProfiler() { vprofd_->Stop(); }

  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }
  std::vector<HandlerSpan> TakeSpans() {
    std::lock_guard<std::mutex> lock(spans_mu_);
    return std::move(spans_);
  }

  uint16_t port() const { return server_->port(); }
  net::NetServer& server() { return *server_; }
  vprof::Vprofd& vprofd() { return *vprofd_; }
  minidb::Engine* db() { return db_.get(); }
  minipg::PgEngine* pg() { return pg_.get(); }
  const vprof::CallGraph& graph() const { return *graph_; }

  uint64_t committed() const {
    return db_ ? db_->committed_count() : pg_->committed_count();
  }
  size_t insert_rows() const { return insert_rows_; }

  // Committed replies the client received, over every pass.
  uint64_t acked = 0;
  int client_cpu = -1;

 private:
  std::shared_ptr<vprof::CallGraph> graph_;
  std::unique_ptr<minidb::Engine> db_;
  std::unique_ptr<minipg::PgEngine> pg_;
  size_t insert_rows_ = 0;
  net::NetServer::Handler inner_;
  std::atomic<bool> recording_{false};
  std::mutex spans_mu_;
  std::vector<HandlerSpan> spans_;
  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<vprof::Vprofd> vprofd_;
};

// Public counters of every layer, read before and after a traced pass.
struct Counters {
  int64_t wall_ns = 0;
  minidb::LockStats lock;
  minidb::BufferPoolStats pool;
  minidb::RedoLogStats redo;
  minipg::WalStats wal;
  uint64_t fsyncs = 0;
  uint64_t committed = 0;
  net::NetServerStats net;
  int64_t total_gap_ns = 0;
  int64_t max_gap_ns = 0;
  statstore::StoreStats store;
};

Counters Snap(Stack& stack) {
  Counters c;
  c.wall_ns = NowNs();
  if (minidb::Engine* db = stack.db()) {
    c.lock = db->lock_manager().stats();
    c.pool = db->buffer_pool().stats();
    c.redo = db->redo_log().stats();
    c.fsyncs = db->log_disk().fsyncs();
  }
  if (minipg::PgEngine* pg = stack.pg()) {
    for (int i = 0; i < pg->wal().unit_count(); ++i) {
      const minipg::WalStats s = pg->wal().unit(i).stats();
      c.wal.flush_waits += s.flush_waits;
      c.wal.flushes_performed += s.flushes_performed;
      c.wal.batched_records += s.batched_records;
      c.fsyncs += pg->wal().unit(i).disk().fsyncs();
    }
  }
  c.committed = stack.committed();
  c.net = stack.server().stats();
  c.total_gap_ns = stack.vprofd().total_gap_ns();
  c.max_gap_ns = stack.vprofd().max_gap_ns();
  if (const statstore::StatStore* store = stack.vprofd().history()) {
    c.store = store->stats();
  }
  return c;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Latency figures are read from the quieter part of a run: the run is cut
// into windows and the figure is the lower quartile over windows (the upper
// one for throughput). On a shared virtual machine the host takes CPUs away
// for milliseconds at a time during busy periods; a stall that hits fewer
// than three quarters of the windows then does not move the figure, while a
// change in the program moves every window.
constexpr double kQuietQuantile = 25.0;
constexpr double kWindowSeconds = 0.5;

// Quiet-quantile over consecutive windows (by due time) of each window's
// p-th latency percentile. Windows with fewer than 100 acked requests are
// skipped.
double WindowedPercentile(const ClientResult& r, double p) {
  std::vector<std::vector<double>> windows;
  for (const RequestRecord& q : r.requests) {
    if (q.outcome != Outcome::kAcked) continue;
    const size_t w =
        static_cast<size_t>(static_cast<double>(q.due_ns - r.first_due_ns) /
                            (kWindowSeconds * 1e9));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(static_cast<double>(q.reply_ns - q.due_ns));
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : windows) {
    if (w.size() >= 100) per_window.push_back(Percentile(std::move(w), p));
  }
  return Percentile(per_window, kQuietQuantile);
}

std::vector<std::string> MakeFrames(uint64_t seed) {
  statkit::Rng rng(seed ^ 0x7065726662656e63ull);
  const workload::TpccGenerator gen(workload::TpccOptions{}, kWarehouses);
  std::vector<std::string> frames(kFramePool);
  for (std::string& bytes : frames) {
    net::Frame frame;
    frame.type = net::MsgType::kTxn;
    frame.txn = gen.Next(rng);
    net::EncodeFrame(frame, &bytes);
  }
  return frames;
}

// Open loop at `rate`, or saturating with `outstanding` requests in flight
// when that is nonzero.
ClientResult Drive(Stack& stack, const std::vector<std::string>& frames,
                   double rate, double seconds, uint64_t seed,
                   uint64_t outstanding = 0, uint64_t max_requests = 0) {
  ClientOptions options;
  options.port = stack.port();
  options.connections = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  options.rate_per_s = rate;
  options.outstanding = outstanding;
  options.max_requests = max_requests;
  options.seconds = seconds;
  options.seed = seed;
  options.frames = &frames;
  options.cpu = stack.client_cpu;
  ClientResult result = RunClient(options);
  stack.acked += result.acked;
  return result;
}

// Sustained goodput with the server saturated: kOutstanding requests stay
// in flight (within the dispatch queue, so nothing is shed). Committed
// replies are counted per window after the first one; the figure is the
// upper quiet-quantile over windows. At most `max_requests` are sent (0: no
// limit).
double Capacity(Stack& stack, const std::vector<std::string>& frames,
                double seconds, uint64_t seed, uint64_t max_requests,
                Report* report) {
  constexpr int64_t kWindowNs = static_cast<int64_t>(kWindowSeconds * 1e9);
  const ClientResult r = Drive(stack, frames, 0.0, seconds, seed + 100,
                               kOutstanding, max_requests);
  const size_t windows = static_cast<size_t>(seconds * 1e9 / kWindowNs);
  std::vector<double> acked(windows, 0.0);
  for (const RequestRecord& q : r.requests) {
    const int64_t w = (q.reply_ns - r.first_due_ns) / kWindowNs;
    if (q.outcome == Outcome::kAcked && w >= 1 &&
        w < static_cast<int64_t>(windows)) {
      acked[static_cast<size_t>(w)] += 1e9 / kWindowNs;
    }
  }
  acked.erase(acked.begin());
  const double goodput = Percentile(acked, 100.0 - kQuietQuantile);
  report->Line("  capacity: %llu in flight for %.1f s, goodput %.0f req/s "
               "(overall %.0f), %llu errors",
               static_cast<unsigned long long>(kOutstanding), seconds, goodput,
               static_cast<double>(r.acked) / seconds,
               static_cast<unsigned long long>(r.errors()));
  return goodput;
}

bool IsLogFactor(const std::string& label) {
  static const std::set<std::string> kLog = {
      "trx_commit", "log_write_up_to", "fil_flush",
      "CommitTransaction", "XLogFlush", "LWLockAcquireOrWait",
      "issue_xlog_fsync"};
  return kLog.count(label) > 0;
}

// vprofd folded at least one epoch and ranks a net- or log-side factor among
// its top three single-function factors.
void CheckVprofd(Stack& stack, Report* report) {
  const vprof::OnlineTreeSnapshot snap = stack.vprofd().Snapshot();
  const std::vector<vprof::Factor> factors = vprof::AggregateFactors(
      snap.View(), stack.graph(), vprof::RegisterFunction(net::kNetRootFunc),
      vprof::SpecificityKind::kQuadratic);
  std::string top;
  bool found = false;
  int n = 0;
  for (const vprof::Factor& f : factors) {
    if (f.is_covariance()) continue;
    const std::string label = f.Label(snap.function_names);
    top += (n == 0 ? "" : ", ") + label + Fmt(" %.1f%%", f.contribution * 100);
    found = found || label.rfind("net:", 0) == 0 || IsLogFactor(label);
    if (++n == 3) break;
  }
  report->Check("vprofd_epochs", snap.epochs >= 1,
                Fmt("%llu epochs folded",
                    static_cast<unsigned long long>(snap.epochs)));
  report->Check("vprofd_top3_net_or_log", found, top);
}

// The client's own tally (its in-flight requests counted from the records),
// and the server's counters over the same pass: every request sent was
// parsed, every shed one was rejected by the server, and every other reply
// the client matched was one the server sent.
void CheckAccounting(const char* phase, const ClientResult& r,
                     const net::NetServerStats& before,
                     const net::NetServerStats& after, Report* report) {
  report->Check(
      Fmt("accounting_%s", phase), r.balanced() && !r.connect_failed,
      Fmt("sent %llu = acked %llu + aborted %llu + rejected %llu + failed "
          "%llu + in_flight %llu",
          static_cast<unsigned long long>(r.sent),
          static_cast<unsigned long long>(r.acked),
          static_cast<unsigned long long>(r.aborted),
          static_cast<unsigned long long>(r.rejected),
          static_cast<unsigned long long>(r.failed),
          static_cast<unsigned long long>(r.in_flight)));
  const uint64_t parsed = after.requests - before.requests;
  const uint64_t shed = after.rejected - before.rejected;
  const uint64_t replied = after.replies_sent - before.replies_sent;
  report->Check(
      Fmt("server_accounting_%s", phase),
      parsed == r.sent && shed == r.rejected &&
          replied == r.replies - r.rejected,
      Fmt("server parsed %llu, shed %llu, replied %llu; client sent %llu, "
          "matched %llu replies",
          static_cast<unsigned long long>(parsed),
          static_cast<unsigned long long>(shed),
          static_cast<unsigned long long>(replied),
          static_cast<unsigned long long>(r.sent),
          static_cast<unsigned long long>(r.replies)));
}

// After the engine stopped: money is conserved, every acked commit was
// counted by the engine, and minidb inserted no row, so no index changed
// while transactions ran concurrently.
void CheckEngine(Stack& stack, Report* report) {
  if (minidb::Engine* db = stack.db()) {
    const int64_t balance = db->BalanceTotal();
    report->Check("minidb_balance_zero", balance == 0,
                  Fmt("BalanceTotal %lld", static_cast<long long>(balance)));
    const size_t rows = InsertTableRows(db);
    report->Check("minidb_keys_preloaded", rows == stack.insert_rows(),
                  Fmt("orders + order_lines + history rows %zu, preloaded %zu",
                      rows, stack.insert_rows()));
  }
  report->Check("committed_ge_acked", stack.committed() >= stack.acked,
                Fmt("committed %llu, acked %llu",
                    static_cast<unsigned long long>(stack.committed()),
                    static_cast<unsigned long long>(stack.acked)));
}

// Whether the generator kept its schedule. A run whose lateness p99 reaches
// the p50 it measures is invalid as a latency measurement: its figures then
// describe the host rather than the server. This is reported beside the
// checks, not as one of them, since the program's outputs are still correct.
void ReportGenerator(const ClientResult& r, Report* report) {
  const double late_p99 = Percentile(r.LatenessNs(), 99.0);
  const double p50 = Percentile(r.LatenciesNs(), 50.0);
  report->Line("  generator: lateness p99 %.1f us = %.3f x p50 %.1f us "
               "(target < 0.1): %s",
               late_p99 / 1e3, Ratio(late_p99, p50), p50 / 1e3,
               late_p99 < p50 ? "valid" : "INVALID, the generator fell behind");
}

// Polls vprofd's public epoch counter and records the tracing-off gap of
// every rotation (fold + snapshot + flatten + append + both quiesces) until
// stopped.
class GapSampler {
 public:
  explicit GapSampler(const vprof::Vprofd& vprofd)
      : thread_([this, &vprofd] {
          uint64_t seen = vprofd.epochs();
          while (!stop_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            const uint64_t epochs = vprofd.epochs();
            if (epochs != seen) {
              seen = epochs;
              gaps_.push_back(static_cast<double>(vprofd.last_gap_ns()));
            }
          }
        }) {}
  ~GapSampler() { Stop(); }

  GapSampler(const GapSampler&) = delete;
  GapSampler& operator=(const GapSampler&) = delete;

  std::vector<double> Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return gaps_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> gaps_;
  std::thread thread_;
};

std::string RunDir(const Args& args) {
  return args.out_dir + "/" + args.workload + "-" +
         std::to_string(args.seed) + "-" + std::to_string(::getpid());
}

// Set-up: the request frames made, then the stack built (for at most
// `transactions` requests) and started. Done `setups` times; returns the
// last stack and frames and the median time.
std::unique_ptr<Stack> SetUp(const WireSpec& spec, const Args& args,
                             int setups, int64_t transactions,
                             std::vector<std::string>* frames,
                             double* setup_s, Report* report) {
  std::vector<double> times, frame_times, stack_times;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    frames->clear();
    const std::string history = RunDir(args) + "/history" + std::to_string(i);
    std::filesystem::remove_all(history);
    const int64_t t0 = NowNs();
    *frames = MakeFrames(args.seed);
    const int64_t t1 = NowNs();
    stack = std::make_unique<Stack>(spec, args.seed, history, transactions);
    stack->client_cpu = args.client_cpu;
    if (!stack->Start()) return nullptr;
    const int64_t t2 = NowNs();
    times.push_back(static_cast<double>(t2 - t0) / 1e9);
    frame_times.push_back(static_cast<double>(t1 - t0) / 1e6);
    stack_times.push_back(static_cast<double>(t2 - t1) / 1e6);
  }
  *setup_s = Median(times);
  report->Line("  set-up: %d times, median %.3f ms (frames %.3f ms, stack "
               "%.3f ms)",
               setups, *setup_s * 1e3, Median(frame_times),
               Median(stack_times));
  return stack;
}

int RunUntraced(const WireSpec& spec, const Args& args, Report* report) {
  const double capacity_s = args.seconds * (1.0 - kFixedShare);
  const uint64_t capacity_max =
      Requests(spec.capacity_ceiling_rps, capacity_s);
  const uint64_t transactions =
      Requests(spec.fixed_rate, kWarmupSeconds) +
      Requests(spec.fixed_rate, args.seconds * kFixedShare) + capacity_max;
  double setup_s = 0.0;
  std::vector<std::string> frames;
  std::unique_ptr<Stack> stack =
      SetUp(spec, args, spec.setups, static_cast<int64_t>(transactions),
            &frames, &setup_s, report);
  if (!stack) {
    std::fprintf(stderr, "perfbench: server failed to start\n");
    return 1;
  }
  Drive(*stack, frames, spec.fixed_rate, kWarmupSeconds, args.seed + 1);

  GapSampler gaps(stack->vprofd());
  const net::NetServerStats net_before = stack->server().stats();
  const ClientResult fixed =
      Drive(*stack, frames, spec.fixed_rate, args.seconds * kFixedShare,
            args.seed + 2);
  const net::NetServerStats net_after = stack->server().stats();
  const std::vector<double> gap_ns = gaps.Stop();
  // Peak memory of the server at the fixed rate; the capacity phase's
  // request records would otherwise set it.
  const double peak_rss_mb = PeakRssMb();
  const double capacity =
      Capacity(*stack, frames, capacity_s, args.seed, capacity_max, report);
  CheckVprofd(*stack, report);
  stack->Stop();

  const std::vector<double> lat = fixed.LatenciesNs();
  const double p50 = WindowedPercentile(fixed, 50.0) / 1e6;
  const double p90 = WindowedPercentile(fixed, 90.0) / 1e6;
  report->attempted = fixed.sent;
  report->failed = fixed.errors();
  report->Line("  fixed rate %.0f req/s: %llu sent, error_rate %.5f; lower "
               "quartile of 0.5 s windows: p50 %.3f ms, p90 %.3f ms, p99 "
               "%.3f ms; pooled over %zu samples: p50 %.3f ms, p99 %.3f ms, "
               "p999 %.3f ms",
               spec.fixed_rate, static_cast<unsigned long long>(fixed.sent),
               Ratio(static_cast<double>(fixed.errors()),
                     static_cast<double>(fixed.sent)),
               p50, p90, WindowedPercentile(fixed, 99.0) / 1e6,
               lat.size(), Percentile(lat, 50.0) / 1e6,
               Percentile(lat, 99.0) / 1e6, Percentile(lat, 99.9) / 1e6);
  report->Line("  vprofd: %zu epochs, rotation gap median %.3f ms, lower "
               "quartile %.3f ms",
               gap_ns.size(), Median(gap_ns) / 1e6,
               Percentile(gap_ns, kQuietQuantile) / 1e6);

  report->Metric("p50_ms", p50, "ms");
  report->Metric("p90_ms", p90, "ms");
  report->Metric("capacity_rps", capacity, "1/s");
  report->Metric("setup_s", setup_s, "s");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");

  CheckAccounting("fixed", fixed, net_before, net_after, report);
  ReportGenerator(fixed, report);
  CheckEngine(*stack, report);
  std::filesystem::remove_all(RunDir(args));
  return 0;
}

// CPU of the process minus the idle spinners', for per-request cost.
int64_t WorkCpuNs(const IdleSpinners& spinners) {
  return ProcessCpuNs() - spinners.CpuNs();
}

// Server-side CPU per acked request over one pass: process CPU minus the
// spinners' and the client thread's own.
double ServerCpuUsPerRequest(const IdleSpinners& spinners, int64_t cpu_before,
                             const ClientResult& r) {
  const int64_t server_ns = WorkCpuNs(spinners) - cpu_before - r.thread_cpu_ns;
  return Ratio(static_cast<double>(server_ns),
               static_cast<double>(r.acked)) / 1e3;
}

int RunTraced(const WireSpec& spec, const Args& args,
              const IdleSpinners& spinners, Report* report) {
  const double pass_s = args.seconds / 3.0;
  const uint64_t transactions = Requests(spec.fixed_rate, kWarmupSeconds) +
                                3 * Requests(spec.fixed_rate, pass_s);
  double setup_s = 0.0;
  std::vector<std::string> frames;
  std::unique_ptr<Stack> stack =
      SetUp(spec, args, 1, static_cast<int64_t>(transactions), &frames,
            &setup_s, report);
  if (!stack) {
    std::fprintf(stderr, "perfbench: server failed to start\n");
    return 1;
  }
  Drive(*stack, frames, spec.fixed_rate, kWarmupSeconds, args.seed + 1);

  // Pass A: untraced reference, vprofd on.
  int64_t cpu0 = WorkCpuNs(spinners);
  const ClientResult plain =
      Drive(*stack, frames, spec.fixed_rate, pass_s, args.seed + 2);
  const double cpu_on = ServerCpuUsPerRequest(spinners, cpu0, plain);

  // Pass B: traced.
  const Counters before = Snap(*stack);
  GapSampler gaps(stack->vprofd());
  stack->set_recording(true);
  const ClientResult traced =
      Drive(*stack, frames, spec.fixed_rate, pass_s, args.seed + 3);
  stack->set_recording(false);
  const std::vector<double> gap_ns = gaps.Stop();
  const Counters after = Snap(*stack);
  const std::vector<HandlerSpan> handler = stack->TakeSpans();
  CheckVprofd(*stack, report);

  // Pass C: vprofd stopped, for the profiler's CPU cost per request.
  stack->StopProfiler();
  cpu0 = WorkCpuNs(spinners);
  const ClientResult bare =
      Drive(*stack, frames, spec.fixed_rate, pass_s, args.seed + 4);
  const double cpu_off = ServerCpuUsPerRequest(spinners, cpu0, bare);
  stack->Stop();

  // Join spans by request id: outside-handler time is what the client saw
  // minus the generator's lateness minus the handler.
  std::vector<double> handler_us;
  std::vector<double> outside_us;
  std::vector<Span> spans;
  spans.reserve(traced.requests.size() * 3);
  std::vector<const HandlerSpan*> by_id(traced.requests.size() + 1, nullptr);
  for (const HandlerSpan& h : handler) {
    if (h.request_id <= traced.requests.size()) by_id[h.request_id] = &h;
    handler_us.push_back(static_cast<double>(h.end_ns - h.start_ns) / 1e3);
  }
  double late_sum = 0.0, outside_sum = 0.0, handler_sum = 0.0;
  size_t joined = 0;
  for (size_t i = 0; i < traced.requests.size(); ++i) {
    const RequestRecord& r = traced.requests[i];
    const uint64_t id = i + 1;
    spans.push_back({"gen.late", id, r.due_ns, r.sent_ns});
    if (r.outcome == Outcome::kInFlight) continue;
    spans.push_back({"request", id, r.due_ns, r.reply_ns});
    const HandlerSpan* h = by_id[id];
    if (h == nullptr) continue;
    spans.push_back({"handler", id, h->start_ns, h->end_ns});
    if (r.outcome != Outcome::kAcked) continue;
    const double hd = static_cast<double>(h->end_ns - h->start_ns);
    const double late = static_cast<double>(r.sent_ns - r.due_ns);
    const double outside =
        static_cast<double>(r.reply_ns - r.due_ns) - late - hd;
    outside_us.push_back(outside / 1e3);
    late_sum += late;
    outside_sum += outside;
    handler_sum += hd;
    ++joined;
  }
  const std::string span_path =
      args.out_dir + "/spans-" + args.workload + "-" +
      std::to_string(args.seed) + ".tsv";
  const bool spans_ok = WriteSpans(span_path, spans);

  const double txns =
      static_cast<double>(after.committed - before.committed);
  const double p50_plain = Percentile(plain.LatenciesNs(), 50.0);
  const double p50_traced = Percentile(traced.LatenciesNs(), 50.0);
  const double wall_ms =
      static_cast<double>(after.wall_ns - before.wall_ns) / 1e6;
  const double gap_ms =
      static_cast<double>(after.total_gap_ns - before.total_gap_ns) / 1e6;

  report->Metric("workload.gen_late_p99_us",
                 Percentile(traced.LatenessNs(), 99.0) / 1e3, "us");
  report->Metric("net.outside_handler_p50_us", Percentile(outside_us, 50.0),
                 "us");
  report->Metric("net.outside_handler_p99_us", Percentile(outside_us, 99.0),
                 "us");
  report->Metric("net.peak_dispatch_depth",
                 static_cast<double>(after.net.peak_dispatch_depth), "count");
  report->Metric("net.rejected",
                 static_cast<double>(after.net.rejected - before.net.rejected),
                 "count");
  if (!spec.minipg) {
    report->Metric("minidb.execute_p50_us", Percentile(handler_us, 50.0), "us");
    report->Metric("minidb.execute_p99_us", Percentile(handler_us, 99.0), "us");
    // A count, not LockStats::wait_ns: the lock manager times waits on
    // vprof's fastclock, which every vprofd rotation re-anchors at zero, so a
    // wait that spans a rotation adds a wrapped negative duration.
    report->Metric("minidb.lock_waits_per_txn",
                   Ratio(static_cast<double>(after.lock.waits -
                                             before.lock.waits),
                         txns), "count");
    report->Metric("minidb.bufpool_mutex_wait_us_per_txn",
                   Ratio(static_cast<double>(after.pool.mutex_wait_ns -
                                             before.pool.mutex_wait_ns),
                         txns) / 1e3, "us");
    report->Metric(
        "minidb.records_per_flush",
        Ratio(static_cast<double>(after.redo.batched_records -
                                  before.redo.batched_records),
              static_cast<double>(after.redo.leader_flushes +
                                  after.redo.background_flushes -
                                  before.redo.leader_flushes -
                                  before.redo.background_flushes)),
        "count");
    report->Metric("minidb.commit_waits_per_txn",
                   Ratio(static_cast<double>(after.redo.commit_waits -
                                             before.redo.commit_waits),
                         txns), "count");
  } else {
    report->Metric("minipg.execute_p50_us", Percentile(handler_us, 50.0), "us");
    report->Metric("minipg.wal_flush_waits_per_txn",
                   Ratio(static_cast<double>(after.wal.flush_waits -
                                             before.wal.flush_waits),
                         txns), "count");
    report->Metric("minipg.records_per_flush",
                   Ratio(static_cast<double>(after.wal.batched_records -
                                             before.wal.batched_records),
                         static_cast<double>(after.wal.flushes_performed -
                                             before.wal.flushes_performed)),
                   "count");
  }
  report->Metric("simio.fsyncs_per_txn",
                 Ratio(static_cast<double>(after.fsyncs - before.fsyncs), txns),
                 "count");
  report->Metric("vprof.rotation_gap_max_ms",
                 static_cast<double>(after.max_gap_ns) / 1e6, "ms");
  report->Metric("vprof.duty_cycle", 1.0 - Ratio(gap_ms, wall_ms), "ratio");
  report->Metric("vprof.cost_us_per_request", cpu_on - cpu_off, "us");
  report->Metric("vprof.epoch_fold_ms",
                 Percentile(gap_ns, kQuietQuantile) / 1e6, "ms");
  report->Metric("statstore.bytes_per_epoch",
                 Ratio(static_cast<double>(after.store.bytes_written -
                                           before.store.bytes_written),
                       static_cast<double>(after.store.appends -
                                           before.store.appends)),
                 "B");
  report->Metric("perfbench.trace_overhead_ratio",
                 Ratio(p50_traced, p50_plain), "ratio");

  // Self-time budget: where a request's mean latency went, outside in.
  const double n = static_cast<double>(std::max<size_t>(joined, 1));
  const double mean_total = (late_sum + outside_sum + handler_sum) / n;
  report->Line("\n  self-time budget (%s, traced pass, %zu requests, mean "
               "%.1f us)",
               args.workload.c_str(), joined, mean_total / 1e3);
  auto row = [&](const char* layer, double ns) {
    report->Line("    %-28s %9.1f us  %5.1f%%", layer, ns / 1e3,
                 100.0 * Ratio(ns, mean_total));
  };
  row("workload (gen.late)", late_sum / n);
  row("net (outside handler)", outside_sum / n);
  if (!spec.minipg) {
    const double pool_ns = Ratio(static_cast<double>(after.pool.mutex_wait_ns -
                                                     before.pool.mutex_wait_ns),
                                 txns);
    row("minidb bufpool mutex wait", pool_ns);
    row("minidb rest (locks, log)", handler_sum / n - pool_ns);
  } else {
    row("minipg (handler)", handler_sum / n);
  }
  report->Line("    vprofd CPU per request: %.2f us (on %.2f, off %.2f)",
               cpu_on - cpu_off, cpu_on, cpu_off);
  report->Line("    tracing overhead: traced p50 %.1f us vs untraced p50 "
               "%.1f us (x%.3f)",
               p50_traced / 1e3, p50_plain / 1e3, Ratio(p50_traced, p50_plain));
  report->Line("    spans: %zu written to %s", spans.size(), span_path.c_str());

  report->attempted = traced.sent;
  report->failed = traced.errors();
  CheckAccounting("traced", traced, before.net, after.net, report);
  ReportGenerator(traced, report);
  CheckEngine(*stack, report);
  report->Check("spans_written", spans_ok && joined > 0,
                Fmt("%zu handler spans joined", joined));
  std::filesystem::remove_all(RunDir(args));
  return 0;
}

}  // namespace

int RunWire(const Args& args, const IdleSpinners& spinners, Report* report) {
  const WireSpec spec = SpecFor(args.workload);
  std::filesystem::create_directories(args.out_dir);
  report->Line("perfbench %s seed %llu: %s behind NetServer (%d workers), "
               "vprofd on, %s",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               spec.minipg ? "minipg (zero-latency WAL)" : "minidb",
               kWorkers, args.trace ? "traced" : "untraced");
  report->Line("  planned operations: %.0f",
               spec.fixed_rate * args.seconds * (args.trace ? 1.0 / 3 : kFixedShare));
  return args.trace ? RunTraced(spec, args, spinners, report)
                    : RunUntraced(spec, args, report);
}

}  // namespace perfbench
