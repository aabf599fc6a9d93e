// Shared helpers for the experiment harnesses in bench/. Each binary
// regenerates one table or figure of the paper's evaluation (Section 4) and
// prints the measured rows next to the paper's reported values. Absolute
// numbers differ (simulated substrate, single machine); the comparison target
// is the *shape*: which factor dominates, which fix wins, by roughly what
// factor.
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "src/vprof/analysis/profiler.h"
#include "src/vprof/json.h"
#include "src/minidb/engine.h"
#include "src/minipg/engine.h"
#include "src/httpd/server.h"
#include "src/net/server.h"
#include "src/statkit/summary.h"
#include "src/workload/ab.h"
#include "src/workload/openloop.h"
#include "src/workload/tpcc.h"

namespace bench {

// Latency triple used throughout the paper: mean, variance, p99.
struct LatencyStats {
  double mean_ms = 0.0;
  double variance_ms2 = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double throughput = 0.0;
  size_t samples = 0;
};

inline LatencyStats ToStats(std::span<const double> latencies_ns,
                            double throughput = 0.0) {
  const statkit::Summary s = statkit::Summarize(latencies_ns);
  LatencyStats out;
  out.mean_ms = s.mean / 1e6;
  out.variance_ms2 = s.variance / 1e12;
  out.p50_ms = s.p50 / 1e6;
  out.p99_ms = s.p99 / 1e6;
  out.p999_ms = s.p999 / 1e6;
  out.throughput = throughput;
  out.samples = s.count;
  return out;
}

inline void PrintStatsRow(const char* label, const LatencyStats& s) {
  std::printf("  %-28s mean=%8.3f ms  var=%10.4f ms^2  p99=%8.3f ms  (n=%zu)\n",
              label, s.mean_ms, s.variance_ms2, s.p99_ms, s.samples);
}

// Prints "measured vs paper" reduction rows.
inline void PrintReductionRow(const char* metric, double baseline,
                              double treated, double paper_pct) {
  const double measured = statkit::ReductionPercent(baseline, treated);
  std::printf("  %-22s measured reduction: %6.1f%%   (paper: %5.1f%%)\n", metric,
              measured, paper_pct);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

// --- paper-regime configurations -------------------------------------------

// minidb "128-WH" regime: memory-resident, record-lock contention dominates.
inline minidb::EngineConfig MysqlMemoryResidentConfig() {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryResident();
  return config;
}

// minidb "2-WH" regime: tiny buffer pool, buffer-pool mutex dominates.
inline minidb::EngineConfig MysqlMemoryConstrainedConfig() {
  minidb::EngineConfig config = minidb::EngineConfig::MemoryConstrained();
  return config;
}

inline workload::TpccOptions TpccQuick(int threads, int txns_per_thread,
                                       uint64_t seed = 99) {
  workload::TpccOptions options;
  options.threads = threads;
  options.transactions_per_thread = txns_per_thread;
  options.seed = seed;
  return options;
}

inline minipg::PgConfig PostgresConfig(int wal_units) {
  minipg::PgConfig config;
  config.wal_units = wal_units;
  return config;
}

inline httpd::HttpdConfig ApacheConfig(bool bulk_allocation) {
  httpd::HttpdConfig config;
  config.workers = 4;
  config.bulk_allocation = bulk_allocation;
  config.global_free_blocks = 8;  // the paper's memory-pressure regime
  return config;
}

// --- fix-comparison runners ---------------------------------------------------

// Builds a fresh minidb engine for `config`, warms it up, runs the TPC-C
// workload untraced, and summarizes committed-transaction latencies.
inline LatencyStats RunMinidb(const minidb::EngineConfig& config,
                              const workload::TpccOptions& options,
                              int warmup_txns_per_thread = 100) {
  minidb::Engine engine(config);
  workload::TpccOptions warmup = options;
  warmup.transactions_per_thread = warmup_txns_per_thread;
  workload::TpccDriver(&engine, warmup).Run();
  const workload::TpccResult result =
      workload::TpccDriver(&engine, options).Run();
  return ToStats(result.latencies_ns, result.throughput_tps);
}

inline LatencyStats RunMinipg(const minipg::PgConfig& config,
                              const workload::TpccOptions& options) {
  minipg::PgEngine engine(config);
  workload::TpccDriver driver(nullptr, options);
  const workload::TpccResult result = driver.RunWith(
      [&engine](const minidb::TxnRequest& request) {
        return engine.Execute(request);
      },
      /*warehouses=*/8);
  return ToStats(result.latencies_ns, result.throughput_tps);
}

inline LatencyStats RunHttpd(const httpd::HttpdConfig& config,
                             const workload::AbOptions& options) {
  httpd::HttpServer server(config);
  workload::AbDriver driver(&server, options);
  const workload::AbResult result = driver.Run();
  server.Shutdown();
  return ToStats(result.latencies_ns, result.requests_per_s);
}

// --- profile-report printing -------------------------------------------------

// Root-to-node path label, e.g. "run_transaction/row_upd/os_event_wait".
inline std::string NodePath(const vprof::VarianceAnalysis& va, vprof::NodeId id) {
  std::vector<std::string> parts;
  while (id > 0) {
    parts.push_back(va.NodeLabel(id));
    id = va.node(id).parent;
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) {
      out += "/";
    }
    out += *it;
  }
  return out;
}

inline void PrintTopFactors(const vprof::ProfileResult& result, size_t k) {
  std::printf("  overall: mean=%.3f ms, variance=%.4f ms^2, intervals=%zu, runs=%d\n",
              result.overall_mean_ns / 1e6, result.overall_variance / 1e12,
              result.latencies_ns.size(), result.runs);
  std::printf("  %-4s %-46s %s\n", "rank", "factor", "contribution to overall variance");
  size_t rank = 1;
  for (const auto& factor : result.all_factors) {
    if (rank > k) {
      break;
    }
    if (factor.contribution < 0.005) {
      continue;
    }
    std::printf("  %-4zu %-46s %6.1f%%\n", rank++,
                factor.Label(result.function_names).c_str(),
                factor.contribution * 100.0);
  }
}

// Per-call-site view: tree nodes for `function` with their contributions,
// reproducing the paper's os_event_wait [A] / [B] split.
inline void PrintFunctionCallSites(const vprof::ProfileResult& result,
                                   const std::string& function) {
  const auto& va = *result.analysis;
  std::vector<std::pair<double, std::string>> rows;
  for (size_t i = 1; i < va.node_count(); ++i) {
    const auto id = static_cast<vprof::NodeId>(i);
    if (va.NodeLabel(id) == function) {
      rows.emplace_back(va.NodeContribution(id), NodePath(va, id));
    }
  }
  std::sort(rows.rbegin(), rows.rend());
  for (const auto& [contribution, path] : rows) {
    std::printf("    %6.1f%%  %s\n", contribution * 100.0, path.c_str());
  }
}

// --- top factors -------------------------------------------------------------

// Factors a bench reports per measured point.
inline constexpr size_t kTopFactors = 3;

struct FactorShare {
  std::string name;
  double contribution = 0.0;
};

// The first kTopFactors single-function factors of a ranked factor list;
// covariance factors echo their two functions and are skipped.
inline std::vector<FactorShare> TopFactors(
    const std::vector<vprof::Factor>& ranked,
    const std::vector<std::string>& function_names) {
  std::vector<FactorShare> top;
  for (const vprof::Factor& factor : ranked) {
    if (factor.is_covariance()) {
      continue;
    }
    top.push_back({factor.Label(function_names), factor.contribution});
    if (top.size() == kTopFactors) {
      break;
    }
  }
  return top;
}

// "name 12.3%, name 4.5%", for a table row.
inline std::string FactorList(const std::vector<FactorShare>& factors) {
  std::string out;
  for (const FactorShare& f : factors) {
    char share[32];
    std::snprintf(share, sizeof(share), " %.1f%%", f.contribution * 100.0);
    out += (out.empty() ? "" : ", ") + f.name + share;
  }
  return out;
}

// --- bench reports -----------------------------------------------------------

// One value of a BENCH_*.json report: a number, string or bool, or an
// object or array of values. An object keeps its keys in insertion order.
class Json {
 public:
  static Json Object() { return Json(Kind::kObject); }
  static Json Array() { return Json(Kind::kArray); }

  Json(bool value) : text_(value ? "true" : "false") {}
  template <std::integral T>
  Json(T value) : text_(std::to_string(value)) {}
  // Fixed-point with `decimals` digits after the point; null if not finite.
  Json(double value, int decimals = 4) : text_("null") {
    if (std::isfinite(value)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
      text_ = buf;
    }
  }
  Json(const std::string& value)
      : text_("\"" + vprof::JsonEscape(value) + "\"") {}
  Json(const char* value) : Json(std::string(value)) {}

  // Appends a member to an object.
  Json& Set(const std::string& key, Json value) {
    keys_.push_back(key);
    values_.push_back(std::move(value));
    return *this;
  }
  // Appends an element to an array.
  Json& Push(Json value) {
    values_.push_back(std::move(value));
    return *this;
  }

  // The value as JSON text, one member or element per line, each nesting
  // level indented two more spaces than `indent`.
  std::string Dump(int indent = 0) const {
    if (kind_ == Kind::kScalar) {
      return text_;
    }
    const bool object = kind_ == Kind::kObject;
    std::string out = object ? "{" : "[";
    for (size_t i = 0; i < values_.size(); ++i) {
      out += (i == 0 ? "\n" : ",\n") + std::string(indent + 2, ' ');
      if (object) {
        out += "\"" + vprof::JsonEscape(keys_[i]) + "\": ";
      }
      out += values_[i].Dump(indent + 2);
    }
    if (!values_.empty()) {
      out += "\n" + std::string(indent, ' ');
    }
    return out + (object ? "}" : "]");
  }

 private:
  enum class Kind { kScalar, kObject, kArray };
  explicit Json(Kind kind) : kind_(kind) {}

  Kind kind_ = Kind::kScalar;
  std::string text_;  // a scalar's JSON text
  std::vector<std::string> keys_;
  std::vector<Json> values_;
};

// [{"name": ..., "contribution": ...}, ...]
inline Json FactorsJson(const std::vector<FactorShare>& factors) {
  Json out = Json::Array();
  for (const FactorShare& f : factors) {
    out.Push(Json::Object()
                 .Set("name", f.name)
                 .Set("contribution", f.contribution));
  }
  return out;
}

// One offered-load point of an open-loop sweep (netload, distload).
struct LoadPoint {
  double utilization = 0.0;  // offered load over the measured capacity
  double offered_per_s = 0.0;
  workload::OpenLoopResult run;
  LatencyStats latency;  // of run's acked requests
  std::vector<FactorShare> top_factors;
};

// Offers `options`' schedule and records the run and its latencies.
inline void MeasureLoad(const workload::OpenLoopOptions& options,
                        LoadPoint* point) {
  point->run = workload::RunOpenLoop(options);
  point->latency = ToStats(std::vector<double>(
      point->run.latencies_ns.begin(), point->run.latencies_ns.end()));
}

// Traces one open-loop run of `options` with every registered probe on.
inline vprof::Trace TraceOpenLoop(const workload::OpenLoopOptions& options) {
  const size_t registered = vprof::RegisteredFunctionCount();
  for (vprof::FuncId id = 0; id < registered; ++id) {
    vprof::SetFunctionEnabled(id, true);
  }
  vprof::StartTracing();
  workload::RunOpenLoop(options);
  vprof::Trace trace = vprof::StopTracing();
  vprof::DisableAllFunctions();
  return trace;
}

// The top factors of a traced open-loop run below `root`. The dispatch
// queue's wait is materialized as net:queue_wait, so net-side time
// competes with the code's functions.
inline std::vector<FactorShare> OpenLoopTopFactors(
    const vprof::Trace& trace, const vprof::CallGraph& graph,
    vprof::FuncId root) {
  vprof::CriticalPathOptions path_options;
  path_options.queue_wait_factor = net::kQueueWaitFactor;
  const vprof::VarianceAnalysis analysis(trace, path_options);
  return TopFactors(vprof::AggregateFactors(analysis, graph, root,
                                            vprof::SpecificityKind::kQuadratic),
                    trace.function_names);
}

// The members every open-loop point reports.
inline Json LoadPointJson(const LoadPoint& p) {
  return Json::Object()
      .Set("utilization", Json(p.utilization, 2))
      .Set("offered_per_s", Json(p.offered_per_s, 1))
      .Set("achieved_per_s", Json(p.run.achieved_per_s, 1))
      .Set("acked", p.run.acked)
      .Set("rejected", p.run.rejected)
      .Set("failed", p.run.failed)
      .Set("p50_ms", p.latency.p50_ms)
      .Set("p99_ms", p.latency.p99_ms)
      .Set("p999_ms", p.latency.p999_ms)
      .Set("top_factors", FactorsJson(p.top_factors));
}

// The source tree's HEAD, or "unknown" when git cannot tell.
inline std::string SourceSha() {
  char sha[64] = "";
  FILE* git = popen("git -C '" BENCH_SOURCE_DIR "' rev-parse HEAD 2>/dev/null",
                    "r");
  bool ok = git != nullptr && std::fscanf(git, "%63s", sha) == 1;
  if (git != nullptr && pclose(git) != 0) {
    ok = false;
  }
  return ok ? sha : "unknown";
}

// CPUs in the process's affinity mask (0 if it cannot be read).
inline int AffinityCpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  return sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
}

inline std::string UtcDate() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

// Writes `report` (an object) to `path` with the provenance keys appended:
// git_sha (SourceSha when the file is written), cpus (AffinityCpus),
// build_type and date_utc. Every bench report goes through here. Returns
// false, after saying why on stderr, if the file cannot be opened, written
// or closed.
inline bool WriteBenchJson(const char* path, Json report) {
  report.Set("git_sha", SourceSha())
      .Set("cpus", AffinityCpus())
      .Set("build_type", BENCH_BUILD_TYPE)
      .Set("date_utc", UtcDate());
  std::ofstream file(path);
  file << report.Dump() << "\n";
  file.close();
  if (!file) {
    std::fprintf(stderr, "cannot write %s: %s\n", path, std::strerror(errno));
    return false;
  }
  std::printf("  wrote %s\n", path);
  return true;
}

// --- median of runs ----------------------------------------------------------

// The `--runs N` option of the sweep benches (scale, distload): the sweep
// repeats N times in-process (default 1) and the report merges the runs.
// Returns 0, after printing the usage, for any other argument.
inline int RunsOption(int argc, char** argv) {
  if (argc == 1) {
    return 1;
  }
  if (argc == 3 && std::strcmp(argv[1], "--runs") == 0) {
    char* end = nullptr;
    const long runs = std::strtol(argv[2], &end, 10);
    if (*end == '\0' && runs >= 1 && runs <= 1000) {
      return static_cast<int>(runs);
    }
  }
  std::fprintf(stderr, "usage: %s [--runs N]  (1 <= N <= 1000)\n", argv[0]);
  return 0;
}

// The run whose key(run) is the median_low of the runs' keys: the middle
// key, or the lower of the two middle keys for an even count; on a tie, the
// earliest run. A merged point is taken whole from that run. `runs` must
// not be empty.
template <typename Run, typename Key>
const Run& MedianLowRun(const std::vector<Run>& runs, Key key) {
  std::vector<double> keys;
  for (const Run& run : runs) {
    keys.push_back(key(run));
  }
  std::vector<double> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[(sorted.size() - 1) / 2];
  return runs[static_cast<size_t>(
      std::find(keys.begin(), keys.end(), median) - keys.begin())];
}

}  // namespace bench

#endif  // BENCH_COMMON_H_
