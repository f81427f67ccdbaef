#!/usr/bin/env python3
"""End-to-end AIS-to-alert benchmark runner.

Builds the benchmark (e2ebench/CMakeLists.txt, which compiles the repository's
libraries from src/) into .bench_build/e2ebench, then runs one workload in its
own process:

  python3 e2ebench/run.py --workload replay_dense --seed 1 --seconds 10 --trace 0

--trace 0 runs e2e_run (untraced; end-to-end metrics), --trace 1 runs
e2e_traced (per-layer metrics from spans around each layer's public calls;
spans are written under .bench_build/e2ebench/traces/). --workload all runs
every workload in turn, each in its own process, and prints every table.
The last line of standard output is the JSON result of the (last) workload.
Run from the repository root.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["replay_dense", "live_longwindow", "churn_checkpoint"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    source = os.path.join(root, "e2ebench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("e2ebench: no src/ beside e2ebench/; run from a repository checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", source, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_workload(build_dir, workload, seed, seconds, trace):
    binary = "e2e_traced" if trace else "e2e_run"
    cmd = [os.path.join(build_dir, binary), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.spans.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"e2ebench: {binary} exited with {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"e2ebench: {binary} printed no result")
        return None
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "e2ebench")
    if not build(root, build_dir):
        log("e2ebench: build failed")
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    result = None
    for w in workloads:
        lines = run_workload(build_dir, w, args.seed, args.seconds,
                             args.trace == 1)
        if lines is None:
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = lines[-1]
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
