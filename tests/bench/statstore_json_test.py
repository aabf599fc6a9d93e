#!/usr/bin/env python3
"""Runs bench/statstore_io in a fresh directory and checks its report.

BENCH_statstore.json must parse, and hold exactly the bench's metric keys
with their JSON types plus the provenance keys every bench report carries.

Usage: statstore_json_test.py <path to the statstore_io binary>
"""
import json
import os
import subprocess
import sys
import tempfile

EXPECTED = {
    "epochs": int,
    "series_per_epoch": int,
    "raw_json_bytes": int,
    "store_bytes": int,
    "compression_ratio": float,
    "bytes_per_value": float,
    "append_mean_us": float,
    "append_p99_us": float,
    "append_max_us": float,
    "query_full_ms": float,
    "query_mpoints_per_s": float,
    "bit_exact_mismatches": int,
    # Provenance.
    "git_sha": str,
    "cpus": int,
    "build_type": str,
    "date_utc": str,
}


def main():
    binary = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as work:
        subprocess.run([binary], cwd=work, check=True,
                       stdout=subprocess.DEVNULL)
        with open(os.path.join(work, "BENCH_statstore.json")) as f:
            report = json.load(f)
    problems = []
    if set(report) != set(EXPECTED):
        problems.append("keys differ: missing %s, unexpected %s" % (
            sorted(set(EXPECTED) - set(report)),
            sorted(set(report) - set(EXPECTED))))
    for key, kind in EXPECTED.items():
        if key in report and type(report[key]) is not kind:
            problems.append("%s is %s, want %s" % (
                key, type(report[key]).__name__, kind.__name__))
    if report.get("cpus", 0) < 1:
        problems.append("cpus is %r" % report.get("cpus"))
    if problems:
        sys.exit("BENCH_statstore.json: " + "; ".join(problems))


if __name__ == "__main__":
    main()
