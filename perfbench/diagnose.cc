// The diagnose workload: the profiler's own turnaround, with no server.
//
// Set-up records one 3-thread eager TPC-C run on minidb with every probe
// enabled and saves it, then records a few 100 ms epochs of the same
// workload the way vprofd's harvester rotates them. The measured loop then
// alternates
//   - a diagnose pass: LoadTraceChecked -> VarianceAnalysis ->
//     AggregateFactors on the saved trace, and
//   - an epoch fold: OnlineVarianceTree::Fold + Snapshot + history flatten
//     (SampleFromSnapshot) + StatStore::Append of the next recorded epoch,
// and, untraced, a run of the host-speed gauge the pass times are scaled by.
// The traced run additionally times each stage on its own and times the
// public critical-path builder (TraceIndex + BuildBreakdowns) as a separate
// stage of the pass.
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/client.h"
#include "perfbench/measure.h"
#include "src/minidb/engine.h"
#include "src/statkit/rng.h"
#include "src/statstore/store.h"
#include "src/vprof/analysis/critical_path.h"
#include "src/vprof/analysis/factor_selection.h"
#include "src/vprof/analysis/variance_tree.h"
#include "src/vprof/registry.h"
#include "src/vprof/runtime.h"
#include "src/vprof/service/history.h"
#include "src/vprof/service/online_tree.h"
#include "src/vprof/trace.h"
#include "src/workload/tpcc.h"

namespace perfbench {
namespace {

constexpr int kThreads = 3;
constexpr int kTxnsPerThread = 3000;
// Transactions the recording may execute, retries and the epochs' load
// included (about 10,500 on the sizing host); the engine is preloaded for
// that many, and any beyond it are refused rather than run.
constexpr int64_t kMaxTransactions = 30000;
constexpr int kEpochs = 5;
constexpr auto kEpoch = std::chrono::milliseconds(100);
constexpr size_t kTopCompared = 10;
// A diagnose pass, an epoch fold and a gauge run took 40–55 ms on the
// 4-vCPU sizing host; a run plans two operations per such iteration of
// `--seconds`.
constexpr double kIterationSeconds = 0.045;

struct Recording {
  std::string path;
  uint64_t intervals = 0;
  uint64_t file_bytes = 0;
  std::vector<vprof::Trace> epochs;
  std::vector<vprof::Factor> factors;  // ranking of the in-memory trace
  std::vector<std::string> function_names;
  int64_t executed = 0;  // transactions run, of kMaxTransactions
  bool inserted_nothing = false;
};

vprof::CallGraph& Graph() {
  static vprof::CallGraph* graph = [] {
    auto* g = new vprof::CallGraph();
    minidb::Engine::RegisterCallGraph(g);
    return g;
  }();
  return *graph;
}

vprof::FuncId Root() { return vprof::RegisterFunction("run_transaction"); }

std::vector<vprof::Factor> Rank(const vprof::VarianceAnalysis& analysis) {
  return vprof::AggregateFactors(analysis, Graph(), Root(),
                                 vprof::SpecificityKind::kQuadratic);
}

void EnableAllProbes() {
  const size_t registered = vprof::RegisteredFunctionCount();
  for (vprof::FuncId id = 0; id < registered; ++id) {
    vprof::SetFunctionEnabled(id, true);
  }
}

// Records the trace the diagnose passes load, and the epochs the fold
// replays.
bool Record(uint64_t seed, const std::string& path, Recording* out) {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  config.flush_policy = minidb::FlushPolicy::kEager;
  config.seed = seed;
  config.data_disk.seed = seed + 1;
  config.log_disk.seed = seed + 2;
  minidb::Engine engine(config);
  const size_t insert_rows = PreloadInsertKeys(&engine, kMaxTransactions);
  std::atomic<int64_t> executed{0};
  const workload::TpccDriver::TypedExecutor execute =
      [&](const minidb::TxnRequest& request) {
        if (executed.fetch_add(1, std::memory_order_relaxed) >=
            kMaxTransactions) {
          return minidb::TxnOutcome{false, 0, minidb::TxnError::kShutdown};
        }
        return engine.Execute(request);
      };
  Graph();
  EnableAllProbes();

  workload::TpccOptions options;
  options.threads = kThreads;
  options.transactions_per_thread = kTxnsPerThread;
  options.seed = seed;
  vprof::StartTracing();
  workload::TpccDriver(&engine, options).RunTyped(execute, config.warehouses);
  const vprof::Trace trace = vprof::StopTracing();
  out->path = path;
  out->intervals = trace.interval_count();
  out->factors = Rank(vprof::VarianceAnalysis(trace));
  out->function_names = trace.function_names;
  if (!vprof::SaveTrace(trace, path)) {
    vprof::DisableAllFunctions();
    return false;
  }
  struct stat st {};
  out->file_bytes = ::stat(path.c_str(), &st) == 0 ? st.st_size : 0;

  // Harvester-style rotation over a continuously running workload.
  std::atomic<bool> stop{false};
  options.seed = seed + 7;
  std::thread load([&] {
    workload::TpccDriver(&engine, options)
        .RunTypedUntil(execute, config.warehouses, stop);
  });
  out->epochs.clear();
  for (int i = 0; i < kEpochs; ++i) {
    vprof::StartTracing();
    std::this_thread::sleep_for(kEpoch);
    out->epochs.push_back(vprof::StopTracing());
  }
  stop.store(true);
  load.join();
  vprof::DisableAllFunctions();
  engine.Stop();
  out->executed = std::min(executed.load(), kMaxTransactions);
  out->inserted_nothing = InsertTableRows(&engine) == insert_rows;
  return true;
}

std::string Labels(const std::vector<vprof::Factor>& factors,
                   const std::vector<std::string>& names, size_t k) {
  std::string out;
  for (size_t i = 0; i < factors.size() && i < k; ++i) {
    out += (i == 0 ? "" : ",") + factors[i].Label(names);
  }
  return out;
}

// Sum of the root's children's shares plus their pairwise covariance
// shares: Equation (2) at the root, which must be 1.
double RootShareSum(const vprof::VarianceAnalysis& va) {
  const double overall = va.overall_variance();
  if (overall <= 0.0) return 0.0;
  double sum = 0.0;
  for (const vprof::NodeId child : va.node(vprof::kRootNode).children) {
    sum += va.NodeVariance(child) / overall;
  }
  for (const vprof::SiblingCovariance& c : va.covariances()) {
    if (c.parent == vprof::kRootNode) sum += 2.0 * c.covariance / overall;
  }
  return sum;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Fixed work of the benchmark's own, of the same kind as a pass: sorting a
// copy of 128k keys and reading a 32 MB table at random. No change to the
// program moves its time; the host's speed does.
class Gauge {
 public:
  Gauge() : keys_(1 << 17), table_(1 << 22) {
    statkit::Rng rng(0x6761756765ull);  // the same work in every run
    for (uint64_t& k : keys_) k = rng.Next();
    for (uint64_t& v : table_) v = rng.Next();
  }

  double RunMs() {
    const int64_t start = NowNs();
    std::vector<uint64_t> sorted = keys_;
    std::sort(sorted.begin(), sorted.end());
    uint64_t sum = 0;
    for (const uint64_t k : sorted) sum += table_[k & (table_.size() - 1)];
    sink_ += sum;
    return Ms(NowNs() - start);
  }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> table_;
  uint64_t sink_ = 0;
};

// A pass is memory-bound, and on the shared sizing host the memory system
// slowed passes by up to 30% for minutes at a time, longer than a run, while
// the ratio of a pass to the gauge run beside it moved by a few percent. So
// every pass is followed by a gauge run, the run is cut into windows by pass
// start, each pass is scaled by kGaugeReferenceMs (the gauge's median time
// on the sizing host) over its window's median gauge time, and a figure is
// a percentile of the scaled passes: milliseconds at that host's speed.
constexpr double kWindowSeconds = 2.0;
constexpr double kGaugeReferenceMs = 11.7;

struct Window {
  std::vector<double> pass_ms;
  std::vector<double> gauge_ms;
};

double GaugedPercentile(const std::vector<Window>& windows, double p) {
  std::vector<double> scaled;
  for (const Window& w : windows) {
    const double gauge = Median(w.gauge_ms);
    for (const double pass : w.pass_ms) {
      scaled.push_back(pass * kGaugeReferenceMs / gauge);
    }
  }
  return Percentile(scaled, p);
}

class Folder {
 public:
  explicit Folder(const std::string& dir) {
    statstore::StoreOptions options;
    options.dir = dir;
    options.max_segments = 4;
    store_ = std::make_unique<statstore::StatStore>(options);
    ok_ = store_->Open();
  }

  // One harvester epoch; stage times in ns land in `stages` when non-null.
  bool Fold(const vprof::Trace& trace, int64_t stages[4]) {
    int64_t t[5];
    t[0] = NowNs();
    tree_.Fold(trace);
    t[1] = NowNs();
    const vprof::OnlineTreeSnapshot snap = tree_.Snapshot();
    t[2] = NowNs();
    const statstore::EpochSample sample =
        vprof::SampleFromSnapshot(snap, ++epoch_, vprof::HarvestHealth{});
    t[3] = NowNs();
    const bool ok = store_->Append(sample) == statstore::AppendStatus::kOk;
    t[4] = NowNs();
    if (stages != nullptr) {
      for (int i = 0; i < 4; ++i) stages[i] = t[i + 1] - t[i];
    }
    return ok && ok_;
  }

  statstore::StoreStats stats() const { return store_->stats(); }

 private:
  vprof::OnlineVarianceTree tree_;
  std::unique_ptr<statstore::StatStore> store_;
  uint64_t epoch_ = 0;
  bool ok_ = false;
};

}  // namespace

int RunDiagnose(const Args& args, Report* report) {
  // Each pass allocates and frees tens of megabytes. Keep freed memory in
  // the heap rather than handing it back to the kernel, so passes reuse
  // resident pages instead of faulting fresh ones in: page faults on a
  // virtual machine cost what the host's state makes them cost.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const std::string dir = args.out_dir + "/diagnose-" +
                          std::to_string(args.seed) + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  report->Line("perfbench diagnose seed %llu: %d-thread eager TPC-C trace, "
               "every minidb probe on, %s",
               static_cast<unsigned long long>(args.seed), kThreads,
               args.trace ? "traced" : "untraced");
  // Printed before the recording, so a run that crashes in it still counts
  // every operation it would have made.
  report->Line("  planned operations: %.0f",
               2.0 * std::ceil(args.seconds / kIterationSeconds));

  // Recorded once: a recording is a 3.5 s job paced by the simulated log
  // disk, steady to a few percent without a median.
  Recording rec;
  const int64_t setup_start = NowNs();
  if (!Record(args.seed, dir + "/trace.vprf", &rec)) {
    std::fprintf(stderr, "perfbench: cannot save the trace\n");
    return 1;
  }
  const double setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  report->Line("  recorded %llu intervals, %llu bytes, %zu epochs, %lld "
               "transactions",
               static_cast<unsigned long long>(rec.intervals),
               static_cast<unsigned long long>(rec.file_bytes),
               rec.epochs.size(), static_cast<long long>(rec.executed));
  report->Check("minidb_keys_preloaded",
                rec.inserted_nothing && rec.executed < kMaxTransactions,
                Fmt("%lld of %lld preloaded transactions used, no row "
                    "inserted: %s",
                    static_cast<long long>(rec.executed),
                    static_cast<long long>(kMaxTransactions),
                    rec.inserted_nothing ? "yes" : "no"));
  const std::string expected = Labels(rec.factors, rec.function_names,
                                      kTopCompared);

  Folder folder(dir + "/history");
  std::vector<double> pass_ms, fold_ms;
  std::vector<double> traced_pass_ms, plain_pass_ms;
  std::vector<double> load_ms, path_ms, fold_stage_ms, snap_ms, append_us;
  std::vector<Span> spans;
  uint64_t attempted = 0, failed = 0;
  bool ranking_stable = true;
  double share_sum = 0.0;
  const statstore::StoreStats store_before = folder.stats();

  std::vector<Window> windows;
  std::unique_ptr<Gauge> gauge;
  if (!args.trace) gauge = std::make_unique<Gauge>();
  const int64_t loop_start = NowNs();
  const int64_t deadline =
      loop_start + static_cast<int64_t>(args.seconds * 1e9);
  for (uint64_t it = 0; NowNs() < deadline || it < 2; ++it) {
    // The traced run keeps its first half untraced, as the overhead
    // reference.
    const bool traced = args.trace && (it % 2 == 1);
    int64_t t[5];
    t[0] = NowNs();
    vprof::Trace trace;
    const vprof::TraceLoadStatus status =
        vprof::LoadTraceChecked(rec.path, &trace);
    t[1] = NowNs();
    t[2] = t[1];
    if (traced) {
      const vprof::TraceIndex index(trace);
      const auto breakdowns = vprof::BuildBreakdowns(index);
      t[2] = NowNs();
    }
    const vprof::VarianceAnalysis analysis(trace);
    t[3] = NowNs();
    const std::vector<vprof::Factor> factors = Rank(analysis);
    t[4] = NowNs();
    const double pass = Ms(t[4] - t[0] - (t[2] - t[1]));

    bool ok = status == vprof::TraceLoadStatus::kOk;
    if (it == 0) {
      ranking_stable =
          ok && Labels(factors, trace.function_names, kTopCompared) == expected;
      share_sum = RootShareSum(analysis);
    } else {
      ok = ok && !factors.empty() &&
           factors.front().Label(trace.function_names) ==
               rec.factors.front().Label(rec.function_names);
    }
    ++attempted;
    failed += ok ? 0 : 1;

    int64_t stages[4];
    const int64_t f0 = NowNs();
    const bool folded = folder.Fold(rec.epochs[it % rec.epochs.size()], stages);
    const int64_t f1 = NowNs();
    ++attempted;
    failed += folded ? 0 : 1;

    if (!args.trace) {
      pass_ms.push_back(pass);
      fold_ms.push_back(Ms(f1 - f0));
      const size_t w = static_cast<size_t>(
          static_cast<double>(t[0] - loop_start) / (kWindowSeconds * 1e9));
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].pass_ms.push_back(pass);
      windows[w].gauge_ms.push_back(gauge->RunMs());
      continue;
    }
    (traced ? traced_pass_ms : plain_pass_ms).push_back(pass);
    if (!traced) continue;
    load_ms.push_back(Ms(t[1] - t[0]));
    path_ms.push_back(Ms(t[2] - t[1]));
    fold_ms.push_back(Ms(f1 - f0));
    fold_stage_ms.push_back(Ms(stages[0]));
    snap_ms.push_back(Ms(stages[1]));
    append_us.push_back(static_cast<double>(stages[3]) / 1e3);
    spans.push_back({"analysis.load", it, t[0], t[1]});
    spans.push_back({"analysis.critical_path", it, t[1], t[2]});
    spans.push_back({"analysis.variance_tree", it, t[2], t[3]});
    spans.push_back({"analysis.factors", it, t[3], t[4]});
    int64_t s = f0;
    const char* names[4] = {"service.fold", "service.snapshot",
                            "service.flatten", "statstore.append"};
    for (int i = 0; i < 4; ++i) {
      spans.push_back({names[i], it, s, s + stages[i]});
      s += stages[i];
    }
  }
  const statstore::StoreStats store_after = folder.stats();

  report->Check("ranking_after_save_load", ranking_stable,
                "top factors: " + expected);
  report->Check("root_shares_sum_to_1", std::fabs(share_sum - 1.0) <= 1e-6,
                Fmt("sum %.9f", share_sum));
  report->Check("passes_and_folds_ok", failed == 0,
                Fmt("%llu of %llu failed",
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted)));
  report->attempted = attempted;
  report->failed = failed;

  if (!args.trace) {
    const double p50 = GaugedPercentile(windows, 50.0);
    const double p90 = GaugedPercentile(windows, 90.0);
    std::vector<double> gauge_ms;
    for (const Window& w : windows) {
      gauge_ms.insert(gauge_ms.end(), w.gauge_ms.begin(), w.gauge_ms.end());
    }
    report->Line("  %zu passes: diagnose_s %.4f s (median), p99 %.3f ms, "
                 "epoch_fold_ms %.3f ms, error_rate %.5f; gauge median %.3f "
                 "ms (%.3f ms on the sizing host); at the sizing host's "
                 "speed: p50 %.3f ms, p90 %.3f ms",
                 pass_ms.size(), Median(pass_ms) / 1e3,
                 Percentile(pass_ms, 99.0), Median(fold_ms),
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 Median(gauge_ms), kGaugeReferenceMs, p50, p90);
    report->Metric("p50_ms", p50, "ms");
    report->Metric("p90_ms", p90, "ms");
    report->Metric("capacity_rps",
                   static_cast<double>(rec.intervals) / (p50 / 1e3), "1/s");
    report->Metric("setup_s", setup_s, "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const double appends =
        static_cast<double>(store_after.appends - store_before.appends);
    report->Metric("analysis.load_ms", Median(load_ms), "ms");
    report->Metric("analysis.critical_path_ms", Median(path_ms), "ms");
    report->Metric("analysis.trace_bytes_per_interval",
                   static_cast<double>(rec.file_bytes) /
                       static_cast<double>(std::max<uint64_t>(rec.intervals, 1)),
                   "B");
    report->Metric("vprof.epoch_fold_ms", Median(fold_ms), "ms");
    report->Metric("service.fold_ms", Median(fold_stage_ms), "ms");
    report->Metric("service.snapshot_ms", Median(snap_ms), "ms");
    report->Metric("statstore.append_us", Median(append_us), "us");
    report->Metric("statstore.bytes_per_epoch",
                   appends > 0.0 ? static_cast<double>(store_after.bytes_written -
                                                       store_before.bytes_written) /
                                       appends
                                 : 0.0,
                   "B");
    const double overhead = Median(traced_pass_ms) / Median(plain_pass_ms);
    report->Metric("perfbench.trace_overhead_ratio", overhead, "ratio");

    const double total = Median(traced_pass_ms);
    report->Line("\n  self-time budget (diagnose pass, median of %zu traced "
                 "passes, %.2f ms)",
                 traced_pass_ms.size(), total);
    report->Line("    %-28s %9.3f ms", "analysis.load", Median(load_ms));
    report->Line("    %-28s %9.3f ms", "variance tree + factors",
                 total - Median(load_ms));
    report->Line("    %-28s %9.3f ms  (timed separately, not in the pass)",
                 "analysis.critical_path", Median(path_ms));
    report->Line("  epoch fold: fold %.3f ms, snapshot %.3f ms, append %.1f us",
                 Median(fold_stage_ms), Median(snap_ms), Median(append_us));
    report->Line("    tracing overhead: traced pass p50 %.3f ms vs untraced "
                 "%.3f ms (x%.3f)",
                 Median(traced_pass_ms), Median(plain_pass_ms), overhead);
    const std::string span_path = args.out_dir + "/spans-diagnose-" +
                                  std::to_string(args.seed) + ".tsv";
    report->Check("spans_written", WriteSpans(span_path, spans),
                  Fmt("%zu spans to %s", spans.size(), span_path.c_str()));
  }
  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace perfbench
