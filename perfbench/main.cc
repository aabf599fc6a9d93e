// perfbench: the repository benchmark binary. One process runs one workload
// once and prints its metrics, checks and a JSON result line; run.py builds
// it, runs it in a child process and reports crashes and hangs.
//
//   perfbench --workload oltp_wire|pg_fastwal_wire|diagnose --seed N
//             --seconds S --trace 0|1 --out DIR
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/measure.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  // Line-buffered, so a crash still leaves the progress lines to report.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Report report;
  args.client_cpu = perfbench::ReserveClientCpu();
  const perfbench::CpuTicks steal_before = perfbench::ReadCpuTicks();
  int rc = 2;
  if (args.workload == "oltp_wire" || args.workload == "pg_fastwal_wire") {
    // Only the wire workloads wait on wake-ups; the spinners would merely
    // share physical cores with diagnose's single-threaded passes.
    const perfbench::IdleSpinners spinners;
    rc = perfbench::RunWire(args, spinners, &report);
  } else if (args.workload == "diagnose") {
    rc = perfbench::RunDiagnose(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  report.Line("  host steal during the run: %.1f%% of CPU time",
              perfbench::StealShare(steal_before));
  report.Print();
  return 0;
}
