#include "perfbench/measure.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <thread>

#include "src/minidb/engine.h"
#include "src/workload/tpcc.h"

namespace perfbench {

size_t PreloadInsertKeys(minidb::Engine* db, int64_t transactions) {
  // A NewOrder takes the next order key and writes lines order_key * 16 +
  // line for each of its at most max_items distinct items; a Payment takes
  // the next history key. Both counters start at 1.
  const int lines = workload::TpccOptions{}.max_items;
  for (int64_t key = 1; key <= transactions; ++key) {
    db->orders().LoadRow(key);
    db->history().LoadRow(key);
    for (int line = 0; line < lines; ++line) {
      db->order_lines().LoadRow(key * 16 + line);
    }
  }
  return InsertTableRows(db);
}

size_t InsertTableRows(minidb::Engine* db) {
  return db->orders().row_count() + db->order_lines().row_count() +
         db->history().row_count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

double StealShare(const CpuTicks& before) {
  const CpuTicks now = ReadCpuTicks();
  const uint64_t total = now.total - before.total;
  return total > 0 ? 100.0 * static_cast<double>(now.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

int ReserveClientCpu() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0 || CPU_COUNT(&cpus) < 2) {
    return -1;
  }
  int last = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &cpus)) last = i;
  }
  CPU_CLR(last, &cpus);
  return sched_setaffinity(0, sizeof(cpus), &cpus) == 0 ? last : -1;
}

struct IdleSpinners::State {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
};

IdleSpinners::IdleSpinners() : state_(std::make_unique<State>()) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n; ++i) {
    state_->threads.emplace_back([s = state_.get(), i] {
      cpu_set_t own;
      CPU_ZERO(&own);
      CPU_SET(i, &own);
      sched_setaffinity(0, sizeof(own), &own);
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      while (!s->stop.load(std::memory_order_relaxed)) {
        sched_yield();
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  state_->stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : state_->threads) t.join();
}

int64_t IdleSpinners::CpuNs() const {
  int64_t total = 0;
  for (std::thread& t : state_->threads) {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
        clock_gettime(clock, &ts) == 0) {
      total += static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
    }
  }
  return total;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%llu\t%lld\t%lld\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::Line(const char* format, ...) {
  va_list ap;
  va_start(ap, format);
  std::vprintf(format, ap);
  va_end(ap);
  std::printf("\n");
}

bool Report::all_checks_pass() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckEntry& c) { return c.ok; });
}

void Report::Print() const {
  std::printf("\n  %-34s %s\n", "metric", "value");
  for (const Entry& m : metrics_) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("\n  %-34s %s\n", "check", "result");
  for (const CheckEntry& c : checks_) {
    std::printf("  %-34s %s  %s\n", c.name.c_str(), c.ok ? "pass" : "FAIL",
                c.detail.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              all_checks_pass() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
