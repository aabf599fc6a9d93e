#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the perfbench binary (and the program's libraries) from source, runs
one workload in a child process, and prints the result as the last line of
standard output:

    python3 perfbench/run.py --workload oltp_wire --seed 1 --seconds 20 --trace 0

Workloads: oltp_wire, pg_fastwal_wire, diagnose (see perfbench/README.md);
`--workload all` runs the three in turn, each printing its own result line.
With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones.

A child that dies on a signal, exits non-zero or hangs past its deadline is a
failed run: its signal and the tail of its stderr are reported, and every
operation it planned counts as failed. The run is then repeated with the
same seed, up to three attempts in all, while time allows (minidb's known
B-tree race crashes about one run in ten to twenty); the metrics of the
attempt that completes are reported with the failed attempts' operations
added to `attempted` and `failed`. When no attempt completes, the runner
exits non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oltp_wire", "pg_fastwal_wire", "diagnose")
# A run must end within 180 s; the build of a fresh checkout has its own
# allowance.
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 840.0
# Attempts per run, while the deadline leaves room for another one.
ATTEMPTS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def run_step(cmd, deadline, log_path):
    """Runs one build command, its output going to log_path; True on success."""
    with open(log_path, "ab") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic())) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no program sources (src/) next to the benchmark")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    deadline = time.monotonic() + BUILD_DEADLINE_S
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    ok = (os.path.isfile(os.path.join(out, "CMakeCache.txt")) or run_step(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        deadline, log_path))
    ok = ok and run_step(["cmake", "--build", out, "-j", jobs], deadline,
                         log_path)
    binary = os.path.join(out, "perfbench")
    if not ok or not os.path.isfile(binary):
        with open(log_path, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        log("perfbench: build failed\n" + tail)
        return None
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def planned_operations(lines):
    for line in lines:
        if line.startswith("  planned operations: "):
            return int(line.split(":")[1])
    return 1


def run_child(cmd, deadline):
    """Runs the benchmark binary until `deadline`.

    Returns (stdout lines, failure reason or None, stderr text)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    budget = max(deadline - time.monotonic(), 1.0)
    try:
        stdout, stderr = proc.communicate(timeout=budget)
        reason = None
        if proc.returncode < 0:
            reason = "killed by %s" % signal.Signals(-proc.returncode).name
        elif proc.returncode > 0:
            reason = "exit code %d" % proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        reason = "hung past its %.0f s deadline" % budget
    return (stdout.decode(errors="replace").splitlines(), reason,
            stderr.decode(errors="replace"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.workload != "all":
        return run_workload(binary, args.workload, args,
                            time.monotonic() + RUN_DEADLINE_S)
    # Every workload in turn, each with its own deadline.
    return max(run_workload(binary, w, args, time.monotonic() + RUN_DEADLINE_S)
               for w in WORKLOADS)


def run_workload(binary, workload, args, deadline):
    """Runs one workload and prints its result line; the exit code."""
    wanted = expected_metrics(args.trace)
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    lost = 0  # planned operations of failed attempts
    for attempt in range(1, ATTEMPTS + 1):
        attempt_start = time.monotonic()
        lines, reason, stderr = run_child(cmd, deadline)
        if reason is None:
            for line in lines[:-1]:
                print(line)
            sys.stderr.write(stderr)
            break
        for line in lines:
            print(line)
        tail = "\n".join(stderr.splitlines()[-20:])
        print("perfbench: attempt %d failed: %s\nstderr tail:\n%s"
              % (attempt, reason, tail))
        log("perfbench: attempt %d failed: %s\n%s" % (attempt, reason, tail))
        lost += planned_operations(lines)
        took = time.monotonic() - attempt_start
        if attempt == ATTEMPTS or took > deadline - time.monotonic():
            print(json.dumps({"correct": False, "attempted": lost,
                              "failed": lost, "metrics": {}}))
            return 1

    result = json.loads(lines[-1])
    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        log("perfbench: metrics not in BENCHMARK.json: %s" % unknown)
        return 1
    missing = [m for m in wanted if m["name"] not in metrics]
    if missing and not args.trace:
        log("perfbench: end-to-end metrics missing: %s"
            % [m["name"] for m in missing])
        return 1
    # A layer this workload does not exercise reads 0.
    for m in missing:
        metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
    if missing:
        print("  not exercised by %s (reported as 0): %s"
              % (workload, ", ".join(m["name"] for m in missing)))
    if lost:
        print("  operations of failed attempts, counted as failed: %d" % lost)
    ordered = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]) + lost,
                      "failed": int(result["failed"]) + lost,
                      "metrics": ordered}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
