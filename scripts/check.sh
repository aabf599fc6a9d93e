#!/usr/bin/env bash
# One-command verification. Every mode is a set of rows of the table below:
# {mode, build, ctest selector, timeout}. A row configures its build tree
# (plain build/, tsan build-tsan/, asan build-asan/ with ASan+UBSan), builds
# the executables of the tests its selector (ctest -R regex or -L label)
# picks — vp_add_test names each executable after its test, so `ctest -N`
# yields the targets — and runs those tests with every sanitizer set to halt
# on the first error. A nonzero timeout bounds the row's wall-clock, for
# suites where a wedged drain or loop thread would otherwise hang. The
# tier1 row builds everything and runs the whole suite in parallel.
# Usage: scripts/check.sh [--tsan-only|--asan-only|--online|--statstore|--scale|--chaos|--net|--dist]
#   (no flag)    the tier1, tsan and asan rows
#   --tsan-only  the tsan row; --asan-only the asan row
#   --<mode>     that mode's rows
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
export TSAN_OPTIONS="halt_on_error=1" ASAN_OPTIONS="halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1"

mapfile -t CHECKS <<'EOF'
# The tier-1 build and test cycle.
tier1      plain  all  -                                                  0
# The vprof runtime's lock-free probe hot path (epoch handshake, chunked
# buffers, full-tracer rings, freeing exited threads' states), the analysis
# pool with the trace loading, critical-path, variance-tree and
# streaming-tree tests that run on it, one real profiling run (httpd, whose
# 6000-interval traces are analyzed on the pool), and the group-commit log
# of both engines (election, crash, recovery, shutdown). Concurrent minidb
# TPC-C is not in this row yet.
tsan       tsan   -R   ^(vprof_(runtime|stress|registry|sync|task_queue|pool|critical_path|variance_tree|trace_io|online_tree)|integration_httpd_profile|minidb_(redo_log|redo_crash|redo_property|group_commit_crash)|minipg_(wal|wal_crash|wal_group_commit_crash))_test$  0
# The fault-injection suite (crash recovery, torn tails, arena-cap overflow,
# quarantine, thread exit) and the trace-analysis tests: the variance tree's
# overlap walk and position search are index arithmetic over loaded trace
# records, also in vprofd's fold.
asan       asan   -R   ^(fault_failpoint|simio_disk|vprof_runtime|minidb_redo_crash|minipg_wal_crash|httpd_server|integration_failure_injection|vprof_variance_tree|vprof_analysis_edge|vprof_critical_path|vprof_cross_thread|vprof_trace_io|vprof_pool|vprof_online_tree)_test$  0
# vprofd: epoch rotation and snapshots are all cross-thread.
online     tsan   -R   ^(statkit_decay|vprof_online_tree|vprof_service)_test$  0
# Compressed history: pointer-heavy bitstream code fed by torn writes.
statstore  asan   -L   statstore                                          0
# Sharded buffer pool (GetPage/Resize against epoch flips), then the
# group-commit torn-batch crash sweeps.
scale      tsan   -R   ^minidb_scale_stress_test$                         0
scale      plain  -L   scale                                              0
# Storms, crash points under load, supervisor ladder, graceful shutdown.
chaos      asan   -L   chaos                                              900
# Event-loop stress (connection churn, epoch flips, shutdown), then the
# whole net suite.
net        tsan   -R   ^(net_stress|integration_net_variance)_test$       0
net        plain  -L   net                                                0
# Stitching against epoch flips, then the whole dist suite over real
# sockets.
dist       tsan   -R   ^dist_stress_test$                                 0
dist       asan   -L   dist                                               900
EOF

# Runs one table row: build selector pattern timeout.
run_row() {
  local build="$1" selector="$2" pattern="$3" timeout="$4"
  local dir="build" options=() wall=() targets=()
  case "${build}" in
    tsan) dir="build-tsan" options=(-DVPROF_TSAN=ON) ;;
    asan) dir="build-asan" options=(-DVPROF_ASAN=ON) ;;
  esac
  if [[ "${timeout}" != 0 ]]; then
    wall=(timeout "${timeout}")
  fi
  cmake -B "${dir}" -S . "${options[@]}" >/dev/null
  if [[ "${selector}" == all ]]; then
    cmake --build "${dir}" -j "${JOBS}"
    (cd "${dir}" && "${wall[@]}" ctest --output-on-failure -j "${JOBS}")
    return
  fi
  mapfile -t targets < <(cd "${dir}" &&
    ctest -N "${selector}" "${pattern}" | sed -n 's/^ *Test *#[0-9]*: //p')
  cmake --build "${dir}" -j "${JOBS}" --target "${targets[@]}"
  (cd "${dir}" &&
   "${wall[@]}" ctest --output-on-failure "${selector}" "${pattern}")
}

case "${1:-}" in
  "") MODES="tier1 tsan asan" ;;
  --tsan-only) MODES="tsan" ;;
  --asan-only) MODES="asan" ;;
  --online|--statstore|--scale|--chaos|--net|--dist) MODES="${1#--}" ;;
  *) sed -n 's/^# Usage: //p' "$0" >&2; exit 2 ;;
esac

for row in "${CHECKS[@]}"; do
  read -r mode build selector pattern timeout <<<"${row}"
  if [[ "${mode}" == "#" || " ${MODES} " != *" ${mode} "* ]]; then
    continue
  fi
  echo "== ${mode}: ${build} build, ctest ${selector} ${pattern} =="
  run_row "${build}" "${selector}" "${pattern}" "${timeout}"
done

echo "== check.sh ${1:-}: all green =="
