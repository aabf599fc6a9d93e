#!/usr/bin/env bash
# One-command verification: the tier-1 build+test cycle, then a
# ThreadSanitizer build of the vprof runtime tests so the lock-free probe
# hot path (epoch handshake, chunked buffers, full-tracer rings) and the
# freeing of exited threads' states are race-checked on every run, together
# with the analysis pool and the trace loading, critical-path sweep
# (BuildBreakdowns and the variance tree's window sinks), variance-tree and
# streaming-tree tests that run on it, and one real profiling run (httpd,
# whose 6000-interval traces are analyzed on the pool), then an ASan+UBSan
# build of the fault-injection suite (crash recovery, torn tails, arena-cap
# overflow, quarantine, thread exit) and of the trace-analysis tests (the
# variance tree's overlap walk and position search are index arithmetic
# over loaded trace records, also in vprofd's fold).
# --online runs only the vprofd service suite (harvester, streaming tree,
# controller, convergence) under ThreadSanitizer — the epoch rotation and
# snapshot paths are all cross-thread.
# --statstore runs the compressed-history suite (codecs, segment IO,
# truncation-at-every-offset recovery, regression detection, vprofd wiring)
# under ASan+UBSan — the store is pointer-heavy bitstream code fed by
# fault-injected torn writes, exactly where ASan earns its keep.
# --scale runs the multi-core scale-out suite: the sharded-buffer-pool
# stress test under ThreadSanitizer (concurrent GetPage/Resize racing epoch
# flips), plus the group-commit torn-batch crash sweeps (ctest label
# "scale") in a plain build.
# --chaos runs the chaos-engineering suite (orchestrator determinism,
# 32-seed fault storms, mid-batch crash cycles under load, supervisor
# ladder, graceful shutdown — ctest label "chaos") under ASan+UBSan with a
# bounded wall-clock, since a wedged shutdown drain would otherwise hang
# the preset.
# --net runs the network front-end suite: the event-loop stress test
# (connection churn vs tracing epoch flips vs shutdown/engine-stop races)
# under ThreadSanitizer, then the full "net" ctest label (protocol fuzz,
# socket fault injection, open-loop statistics, socket-anchored variance
# integration) in a plain build.
# --dist runs the cross-service profiling suite: the concurrent
# stitching-vs-epoch-flip stress under ThreadSanitizer, then the full
# "dist" ctest label (wire-extension fuzz, async client over real localhost
# sockets, trace stitching, two-tier variance integration) under ASan+UBSan
# with a bounded wall-clock — every test opens real sockets, so a wedged
# loop thread would otherwise hang the preset.
# Usage: scripts/check.sh [--tsan-only|--asan-only|--online|--statstore|--scale|--chaos|--net|--dist]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
MODE="${1:-}"

if [[ "${MODE}" == "--online" ]]; then
  echo "== tsan: online profiling service suite =="
  # The minidb-backed convergence test is tier-1 only: minidb's single-writer
  # btree latching is not TSan-clean under concurrent TPC-C, independent of
  # the service layer under test here.
  cmake -B build-tsan -S . -DVPROF_TSAN=ON >/dev/null
  ONLINE_TARGETS=(statkit_decay_test vprof_online_tree_test vprof_service_test)
  cmake --build build-tsan -j "${JOBS}" --target "${ONLINE_TARGETS[@]}"
  (cd build-tsan &&
   TSAN_OPTIONS="halt_on_error=1" \
   ctest --output-on-failure -R \
     '^(statkit_decay|vprof_online_tree|vprof_service)_test$')
  echo "== check.sh --online: all green =="
  exit 0
fi

if [[ "${MODE}" == "--statstore" ]]; then
  echo "== asan+ubsan: statstore suite =="
  cmake -B build-asan -S . -DVPROF_ASAN=ON >/dev/null
  STATSTORE_TARGETS=(gorilla_test store_test store_recovery_test
                     regression_test vprof_history_test
                     integration_history_regression_test)
  cmake --build build-asan -j "${JOBS}" --target "${STATSTORE_TARGETS[@]}"
  (cd build-asan &&
   ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
   ctest --output-on-failure -L statstore)
  echo "== check.sh --statstore: all green =="
  exit 0
fi

if [[ "${MODE}" == "--scale" ]]; then
  echo "== tsan: sharded buffer pool stress =="
  # The pool is stressed directly (not through the engine): minidb's
  # single-writer btree latching is not TSan-clean under concurrent TPC-C,
  # and the sharding layer is what this preset guards.
  cmake -B build-tsan -S . -DVPROF_TSAN=ON >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target minidb_scale_stress_test
  (cd build-tsan &&
   TSAN_OPTIONS="halt_on_error=1" \
   ctest --output-on-failure -R '^minidb_scale_stress_test$')
  echo "== plain: group-commit crash sweeps (label: scale) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target minidb_scale_stress_test \
    minidb_group_commit_crash_test minipg_wal_group_commit_crash_test
  (cd build && ctest --output-on-failure -L scale)
  echo "== check.sh --scale: all green =="
  exit 0
fi

if [[ "${MODE}" == "--chaos" ]]; then
  echo "== asan+ubsan: chaos suite (label: chaos) =="
  cmake -B build-asan -S . -DVPROF_ASAN=ON >/dev/null
  CHAOS_TARGETS=(fault_chaos_test integration_chaos_storm_test
                 integration_supervisor_test integration_shutdown_test)
  cmake --build build-asan -j "${JOBS}" --target "${CHAOS_TARGETS[@]}"
  (cd build-asan &&
   ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
   timeout 900 ctest --output-on-failure -L chaos)
  echo "== check.sh --chaos: all green =="
  exit 0
fi

if [[ "${MODE}" == "--net" ]]; then
  echo "== tsan: event-loop stress (churn x epoch flips x shutdown) =="
  cmake -B build-tsan -S . -DVPROF_TSAN=ON >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target net_stress_test \
    integration_net_variance_test
  (cd build-tsan &&
   TSAN_OPTIONS="halt_on_error=1" \
   ctest --output-on-failure -R \
     '^(net_stress|integration_net_variance)_test$')
  echo "== plain: full net suite (label: net) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target net_protocol_test \
    net_server_test net_fault_test net_openloop_test net_stress_test \
    integration_net_variance_test
  (cd build && ctest --output-on-failure -L net)
  echo "== check.sh --net: all green =="
  exit 0
fi

if [[ "${MODE}" == "--dist" ]]; then
  echo "== tsan: concurrent stitching vs epoch flips =="
  cmake -B build-tsan -S . -DVPROF_TSAN=ON >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target dist_stress_test
  (cd build-tsan &&
   TSAN_OPTIONS="halt_on_error=1" \
   ctest --output-on-failure -R '^dist_stress_test$')
  echo "== asan+ubsan: full dist suite (label: dist) =="
  cmake -B build-asan -S . -DVPROF_ASAN=ON >/dev/null
  DIST_TARGETS=(dist_protocol_test dist_stitch_test dist_async_client_test
                dist_stress_test integration_dist_variance_test)
  cmake --build build-asan -j "${JOBS}" --target "${DIST_TARGETS[@]}"
  (cd build-asan &&
   ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
   timeout 900 ctest --output-on-failure -L dist)
  echo "== check.sh --dist: all green =="
  exit 0
fi

if [[ -z "${MODE}" ]]; then
  echo "== tier-1: build + ctest =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}"
  (cd build && ctest --output-on-failure -j "${JOBS}")
fi

if [[ "${MODE}" != "--asan-only" ]]; then
  echo "== tsan: vprof runtime and analysis pool tests =="
  cmake -B build-tsan -S . -DVPROF_TSAN=ON >/dev/null
  TSAN_TARGETS=(vprof_runtime_test vprof_stress_test vprof_registry_test
                vprof_sync_test vprof_task_queue_test vprof_pool_test
                vprof_critical_path_test vprof_variance_tree_test
                vprof_trace_io_test vprof_online_tree_test
                integration_httpd_profile_test)
  cmake --build build-tsan -j "${JOBS}" --target "${TSAN_TARGETS[@]}"
  (cd build-tsan &&
   TSAN_OPTIONS="halt_on_error=1" \
   ctest --output-on-failure -R \
     '^(vprof_(runtime|stress|registry|sync|task_queue|pool|critical_path|variance_tree|trace_io|online_tree)|integration_httpd_profile)_test$')
fi

if [[ "${MODE}" != "--tsan-only" ]]; then
  echo "== asan+ubsan: fault-injection suite and trace analysis =="
  cmake -B build-asan -S . -DVPROF_ASAN=ON >/dev/null
  ASAN_TARGETS=(fault_failpoint_test simio_disk_test vprof_runtime_test
                minidb_redo_crash_test minipg_wal_crash_test
                httpd_server_test integration_failure_injection_test
                vprof_variance_tree_test vprof_analysis_edge_test
                vprof_critical_path_test vprof_cross_thread_test
                vprof_trace_io_test vprof_pool_test vprof_online_tree_test)
  cmake --build build-asan -j "${JOBS}" --target "${ASAN_TARGETS[@]}"
  (cd build-asan &&
   ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
   ctest --output-on-failure -R \
     '^(fault_failpoint|simio_disk|vprof_runtime|minidb_redo_crash|minipg_wal_crash|httpd_server|integration_failure_injection|vprof_variance_tree|vprof_analysis_edge|vprof_critical_path|vprof_cross_thread|vprof_trace_io|vprof_pool|vprof_online_tree)_test$')
fi

echo "== check.sh: all green =="
