#!/usr/bin/env python3
"""Build and run the served-epoch benchmark.

    python3 perfbench/run.py --workload campus_saturate --seed 1 \
        --seconds 20 --trace 0

builds perfbench/ (and the UniLoc libraries it links) into
.bench_build/perfbench under the repository root, then runs one workload.
`--workload all` runs every workload in turn. The last line of standard
output is the workload's JSON result; build output goes to standard error.
A traced run (`--trace 1`) also writes a sample of its spans to
.bench_build/perfbench-spans/<workload>-seed<seed>.csv.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "uniloc_perfbench")
WORKLOADS = ("campus_saturate", "city_churn")


def build():
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "uniloc_perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def run(workload, args):
    work = os.path.join(ROOT, ".bench_build", "perfbench-work",
                        f"{workload}-{os.getpid()}")
    spans = os.path.join(ROOT, ".bench_build", "perfbench-spans",
                         f"{workload}-seed{args.seed}.csv")
    try:
        return subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work, "--spans", spans]).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for w in workloads:
        code = run(w, args) or code
    return code


if __name__ == "__main__":
    sys.exit(main())
