#!/usr/bin/env bash
# One-command verification. Every mode is a set of rows of the table below:
# {mode, preset, ctest selector, timeout}. A row configures, builds and tests
# through one CMakePresets.json preset (default, tsan, or asan with
# ASan+UBSan): it builds the executables of the tests its selector (ctest -R
# regex or -L label) picks — vp_add_test names each executable after its
# test, so `ctest -N` yields the targets — and runs those tests with every
# sanitizer set to halt on the first error. A nonzero timeout bounds the
# row's wall-clock, for suites where a wedged drain or loop thread would
# otherwise hang. The tier1 row builds everything and runs the whole suite
# in parallel. The examples row is not ctest: it builds the example programs
# and runs each one under the timeout.
#
# Every selected row runs, whatever an earlier row's result; the summary at
# the end lists each row's pass/fail, and the exit status is nonzero if any
# row failed.
# Usage: scripts/check.sh [--tsan-only|--asan-only|--online|--statstore|--scale|--chaos|--net|--dist|--examples]
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
tier1      default  all  -                                                 0
# The vprof runtime's lock-free probe hot path (epoch handshake, chunked
# buffers, full-tracer rings, freeing exited threads' states), the worker
# pool and its users (httpd's first-use pool start and submit-and-wait,
# NetServer's dispatch, cross-thread reply post and deferred replies, and
# the event-loop stress whose engine stop drives minidb's pipelined commits
# completing on other workers), the analysis pool with
# the trace loading, critical-path, variance-tree and streaming-tree tests
# that run on it, real profiling runs (httpd, whose 6000-interval traces
# are analyzed on the pool, and concurrent minidb TPC-C with its graceful
# shutdown), and the group-commit log (election, crash, recovery, shutdown)
# on both engines' wrappers, with each engine's own log tests.
tsan       tsan     -R   ^(vprof_(runtime|stress|registry|sync|task_queue|worker_pool|pool|critical_path|variance_tree|trace_io|online_tree)|httpd_server|net_(server|stress)|integration_(httpd_profile|minidb_profile|shutdown)|commitlog|minidb_(redo_log|redo_crash|redo_property|group_commit_crash)|minipg_(wal|wal_crash|wal_group_commit_crash))_test$  0
# The fault-injection suite (crash recovery, torn tails, arena-cap overflow,
# quarantine, thread exit), the trace-analysis tests (the variance tree's
# overlap walk and position search are index arithmetic over loaded trace
# records, also in vprofd's fold), the framed connection's buffer and
# offset arithmetic under the server, the open-loop generator and the RPC
# client, the statkit accumulators with the Eq. 2 property tests, and the
# sync primitives' shift-and-cast owner-stamp packing.
asan       asan     -R   ^(fault_failpoint|simio_disk|vprof_runtime|commitlog|minidb_redo_crash|minipg_wal_crash|httpd_server|integration_failure_injection|vprof_variance_tree|vprof_analysis_edge|vprof_critical_path|vprof_cross_thread|vprof_trace_io|vprof_pool|vprof_online_tree|vprof_sync|statkit_[a-z_]+|net_(server|fault|openloop)|dist_async_client)_test$  0
# vprofd: epoch rotation and snapshots are all cross-thread.
online     tsan     -R   ^(statkit_decay|vprof_online_tree|vprof_service)_test$  0
# Compressed history: pointer-heavy bitstream code fed by torn writes.
statstore  asan     -L   statstore                                         0
# Sharded buffer pool (GetPage/Resize against epoch flips), then the
# group-commit torn-batch crash sweeps.
scale      tsan     -R   ^minidb_scale_stress_test$                        0
scale      default  -L   scale                                             0
# Storms, crash points under load, supervisor ladder, graceful shutdown.
chaos      asan     -L   chaos                                             900
# Event-loop stress (connection churn, epoch flips, shutdown), then the
# whole net suite.
net        tsan     -R   ^(net_stress|integration_net_variance)_test$      0
net        default  -L   net                                               0
# Stitching against epoch flips, then the whole dist suite over real
# sockets.
dist       tsan     -R   ^dist_stress_test$                                0
dist       asan     -L   dist                                              900
# The example programs, each of which must exit 0 within the timeout.
examples   default  run  -                                                 120
EOF

# The examples row's programs, in order, with their arguments. They run in
# a scratch directory: record_and_inspect writes its trace files there, and
# profile_online leaves the vprofd history that statstore_inspect reads.
EXAMPLES=(
  "quickstart"
  "record_and_inspect ."
  "profile_multitier"
  "profile_online"
  "statstore_inspect profile_online_history"
  "statstore_inspect profile_online_history --top"
  "profile_dist"
)

# Runs the examples row on the default preset's build/: builds the
# programs, then runs each one under `timeout` seconds in build/examples_run
# and prints its last output line. Fails if any program fails.
run_examples() {
  local timeout="$1" run_dir=build/examples_run entry failed=0
  local -a targets=()
  for entry in "${EXAMPLES[@]}"; do
    targets+=("${entry%% *}")
  done
  cmake --build --preset default -j "${JOBS}" --target "${targets[@]}" ||
    return
  rm -rf "${run_dir}" && mkdir -p "${run_dir}" || return
  for entry in "${EXAMPLES[@]}"; do
    local -a cmd
    read -r -a cmd <<<"${entry}"
    local log="${run_dir}/${entry// /_}.log" status=0 start="${SECONDS}"
    (cd "${run_dir}" && timeout "${timeout}" \
      "../examples/${cmd[0]}" "${cmd[@]:1}") >"${log}" 2>&1 || status=$?
    if [[ "${status}" == 0 ]]; then
      echo "  ok   ${entry} ($((SECONDS - start)) s): $(tail -n 1 "${log}")"
    else
      echo "  FAIL ${entry}: exit ${status}; last lines of ${log}:"
      tail -n 20 "${log}" | sed 's/^/    /'
      failed=1
    fi
  done
  return "${failed}"
}

# Runs one table row: preset selector pattern timeout. Returns nonzero when
# any step fails.
run_row() {
  local preset="$1" selector="$2" pattern="$3" timeout="$4"
  local wall=() targets=()
  cmake --preset "${preset}" >/dev/null || return
  if [[ "${selector}" == run ]]; then
    run_examples "${timeout}"
    return
  fi
  if [[ "${timeout}" != 0 ]]; then
    wall=(timeout "${timeout}")
  fi
  if [[ "${selector}" == all ]]; then
    cmake --build --preset "${preset}" -j "${JOBS}" || return
    "${wall[@]}" ctest --preset "${preset}" --output-on-failure -j "${JOBS}"
    return
  fi
  mapfile -t targets < <(ctest --preset "${preset}" -N "${selector}" \
    "${pattern}" | sed -n 's/^ *Test *#[0-9]*: //p')
  cmake --build --preset "${preset}" -j "${JOBS}" --target "${targets[@]}" ||
    return
  "${wall[@]}" ctest --preset "${preset}" --output-on-failure "${selector}" \
    "${pattern}"
}

case "${1:-}" in
  "") MODES="tier1 tsan asan" ;;
  --tsan-only) MODES="tsan" ;;
  --asan-only) MODES="asan" ;;
  --online|--statstore|--scale|--chaos|--net|--dist|--examples)
    MODES="${1#--}" ;;
  *) sed -n 's/^# Usage: //p' "$0" >&2; exit 2 ;;
esac

SUMMARY=()
FAILED=0
for row in "${CHECKS[@]}"; do
  read -r mode preset selector pattern timeout <<<"${row}"
  if [[ "${mode}" == "#" || " ${MODES} " != *" ${mode} "* ]]; then
    continue
  fi
  label="${mode}: ${preset} preset, ${selector} ${pattern}"
  echo "== ${label} =="
  if run_row "${preset}" "${selector}" "${pattern}" "${timeout}"; then
    SUMMARY+=("pass  ${label}")
  else
    SUMMARY+=("FAIL  ${label}")
    FAILED=1
  fi
done

echo "== check.sh ${1:-}: summary =="
printf '  %s\n' "${SUMMARY[@]}"
exit "${FAILED}"
