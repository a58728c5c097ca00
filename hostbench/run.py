#!/usr/bin/env python3
"""Build and run the host-time benchmark.

    python3 hostbench/run.py --workload sweep_analytic|paper_apps|serve_mix \
        --seed N --seconds S --trace 0|1

Run it from the repository root (or any checkout of it). It builds the
library from src/ and the benchmark from hostbench/ into .bench_build/,
then runs one workload. The last line of stdout is the JSON result; the
run record and the span file go to .bench_out/. Build output goes to
stderr. See hostbench/README.md.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "hostbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 175
WORKLOADS = ("sweep_analytic", "paper_apps", "serve_mix")

def fail(message):
    print("hostbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs,
         "--target", "hostbench", "hybridic_serve"],
        stdout=sys.stderr, check=True)


def git_revision():
    """The checkout's git revision, or "unknown" outside a git tree."""
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at " + os.path.join(ROOT, "src"))
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: " + str(error))

    os.makedirs(OUT_DIR, exist_ok=True)
    command = [
        os.path.join(BUILD_DIR, "hostbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
        "--out-dir", OUT_DIR,
        "--serve-bin", os.path.join(BUILD_DIR, "hybridic_serve"),
        "--git-rev", git_revision(),
    ]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(completed.returncode)

if __name__ == "__main__":
    main()
