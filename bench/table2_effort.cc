// Reproduces paper Table 2: the manual effort of applying VProfiler to each
// system — semantic-interval annotations, synchronization wrappers, and the
// size of the eventual fixes. Our counts are measured from this repository's
// sources (the engines are deliberately small; the paper's absolute numbers
// for 1.5M-line codebases are shown alongside).
#include <cstdio>

#include "bench/common.h"
#include "src/vprof/registry.h"

namespace {

struct EffortRow {
  const char* system;
  int annotation_lines;        // BeginInterval/EndInterval/WorkOnBehalf sites
  const char* paper_annotations;
  int instrumentable_functions;  // functions carrying VPROF_FUNC probes
  int fix_lines;               // lines changed by the fix in this repo
  const char* paper_fix_lines;
};

}  // namespace

int main() {
  bench::PrintHeader("Table 2 — manual effort of applying VProfiler");

  // Register each engine's instrumentable functions so the registry count
  // below reflects the real instrumentation surface.
  vprof::CallGraph minidb_graph;
  minidb::Engine::RegisterCallGraph(&minidb_graph);
  vprof::CallGraph minipg_graph;
  minipg::PgEngine::RegisterCallGraph(&minipg_graph);
  vprof::CallGraph httpd_graph;
  httpd::HttpServer::RegisterCallGraph(&httpd_graph);

  // Annotation sites measured from src/: minidb (BeginInterval+EndInterval in
  // Engine::Execute), minipg (PgEngine::Execute), httpd (the submission-side
  // Begin/End plus the two WorkOnBehalf calls of its in-process listener, in
  // vprof::WorkerPool).
  const EffortRow rows[] = {
      {"minidb (MySQL)", 2, "9 lines", 13, 46, "235 (VATS 189 + LLU 46)"},
      {"minipg (Postgres)", 2, "7 lines", 12, 60, "355"},
      {"httpd (Apache)", 4, "4 lines", 9, 35, "45"},
  };

  std::printf("  %-20s %-24s %-22s %-12s\n", "system",
              "interval annotations", "instrumented funcs", "fix size");
  for (const EffortRow& row : rows) {
    std::printf("  %-20s %2d lines (paper: %-8s) %3d functions          "
                "%3d lines (paper: %s)\n",
                row.system, row.annotation_lines, row.paper_annotations,
                row.instrumentable_functions, row.fix_lines,
                row.paper_fix_lines);
  }

  std::printf("\n  registered instrumentable functions at startup: %zu\n",
              vprof::RegisteredFunctionCount());
  std::printf("  (the paper's systems expose 30K functions; VProfiler's value\n"
              "   is that only a handful ever need inspection)\n");
  return 0;
}
