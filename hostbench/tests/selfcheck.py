#!/usr/bin/env python3
"""Self-check of the host-time benchmark.

    python3 hostbench/tests/selfcheck.py [--seconds S]

From the repository root: runs every workload of BENCHMARK.json briefly
with tracing off and on, and fails unless each run exits 0, prints every
named metric with its unit on its last line, reports correct = true and
failed = 0 (failed_frac = 0), and records a sample count for every
percentile. Then copies only BENCHMARK.json and the benchmark's paths into
a scratch directory under .bench_out/ and checks that the command fails
there without printing a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
PERCENTILE_SUFFIXES = ("_p50", "_p90", "_p99")


def run(spec, workload, seconds, trace, cwd):
    command = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", str(seconds),
        "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(spec, workload, seconds, trace):
    errors = []
    completed = run(spec, workload, seconds, trace, ROOT)
    if completed.returncode != 0:
        return ["exit code %d: %s" % (completed.returncode,
                                      completed.stderr[-2000:])]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("correct=%s failed=%s" % (result["correct"],
                                                result["failed"]))
    if result["attempted"] < 1:
        errors.append("attempted %s" % result["attempted"])
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            errors.append("metric %s missing" % metric["name"])
        elif got["unit"] != metric["unit"]:
            errors.append("metric %s unit %s, want %s" % (
                metric["name"], got["unit"], metric["unit"]))
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        errors.append("unlisted metrics %s" % sorted(extra))
    record = json.loads(lines[-2][len("hostbench-record "):])
    for name in list(record["metrics"]) + list(record["extra"]):
        if name.endswith(PERCENTILE_SUFFIXES) and name not in record["samples"]:
            errors.append("percentile %s has no sample count" % name)
    if not trace and record["extra"].get("failed_frac", {}).get("value") != 0:
        errors.append("failed_frac %s" % record["extra"].get("failed_frac"))
    for key in ("nproc", "compiler", "build_type", "git_rev"):
        if key not in record["fingerprint"]:
            errors.append("fingerprint lacks %s" % key)
    return errors


def check_bare_directory(spec):
    # Inside the checkout, next to the run records.
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="bare-", dir=out_dir)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(scratch, path))
        completed = run(spec, spec["workloads"][0]["name"], 1, 0, scratch)
        if completed.returncode == 0:
            return ["command exits 0 without the library sources"]
        if '"metrics"' in completed.stdout:
            return ["command prints a result without the library sources"]
        return []
    finally:
        shutil.rmtree(scratch)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Shorter traced sweeps hold too few shards for the layer self times
    # to reconcile within the stated tolerance on a noisy host.
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors = check_run(spec, workload["name"], args.seconds, trace)
            status = "ok" if not errors else "FAIL"
            print("%-16s trace=%d %s" % (workload["name"], trace, status))
            for error in errors:
                print("    " + error)
            failures += len(errors)
    errors = check_bare_directory(spec)
    print("bare directory   %s" % ("ok" if not errors else "FAIL"))
    for error in errors:
        print("    " + error)
    failures += len(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
