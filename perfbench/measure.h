// Shared measurement helpers of the benchmark binary: order statistics,
// process counters, the spans the traced runs keep in memory, and the JSON
// line each workload prints last.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace minidb {
class Engine;
}

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // spans and per-run statstores go here
  int client_cpu = -1;         // CPU reserved for the load generator
};

// Linear-interpolated percentile (p in [0, 100]); 0 on empty input.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double PeakRssMb();       // getrusage ru_maxrss
int64_t ProcessCpuNs();   // CLOCK_PROCESS_CPUTIME_ID

// System-wide CPU ticks from /proc/stat: all states, and the share a
// hypervisor took (steal). StealShare is the steal share since `before`.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
double StealShare(const CpuTicks& before);

// Confines the calling thread, and every thread it creates afterwards, to
// all CPUs but the last, and returns the last one for the load generator, so
// the generator is never preempted by the server it measures. -1 (and no
// change) with fewer than two CPUs.
int ReserveClientCpu();

// One SCHED_IDLE busy-loop thread per CPU for the life of the object. The
// kernel runs them only when nothing else is runnable and preempts them as
// soon as a thread wakes, and they yield in their loop so a runnable thread
// never waits out their time slice. So no CPU ever halts: on a virtual
// machine, waking a halted vCPU goes through the host scheduler and took
// milliseconds on a busy host, which the server's and the client's wake-ups
// would otherwise measure.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();

  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  // CPU time the spinners have used, to subtract from process CPU.
  int64_t CpuNs() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// One span of a traced run. Spans of one request share `request_id`; a
// workload without requests numbers its spans by iteration.
struct Span {
  std::string name;
  uint64_t request_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Writes spans as tab-separated `name request_id start_ns end_ns` lines.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// The workload's result: metrics in insertion order, correctness checks,
// and the operation accounting.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Line(const char* format, ...) __attribute__((format(printf, 2, 3)));

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool all_checks_pass() const;
  // Prints the check table, then the JSON object as the last stdout line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckEntry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> metrics_;
  std::vector<CheckEntry> checks_;
};

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

// minidb searches an index without its latch while an insert into the same
// index may be moving its nodes (ROADMAP item 1), so two transactions that
// insert at once crash the process now and then. This loads every orders,
// order_lines and history key that the first `transactions` transactions
// can reach, before the engine runs: each insert then finds its key present
// and inserts nothing, and no index changes while transactions run
// concurrently. Returns the three tables' row count, which stays the same
// exactly as long as no insert happens.
size_t PreloadInsertKeys(minidb::Engine* db, int64_t transactions);
size_t InsertTableRows(minidb::Engine* db);

int RunWire(const Args& args, const IdleSpinners& spinners, Report* report);
int RunDiagnose(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
