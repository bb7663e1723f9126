#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 repobench/run.py --selftest

The first call configures and builds, into .bench_build at the root of the
repository, the program with the repository's own CMake files and the
benchmark's driver from repobench/CMakeLists.txt; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the driver's JSON result. See repobench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("banking-ssi-durable", "tpcc-negotiated", "advisor-edit")


def build():
    def step(cmd):
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("repobench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", BUILD, "-j", "4", "--target",
          "repobench_driver", "repobench_selftest"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the tests of the benchmark's arithmetic")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        return subprocess.call([os.path.join(BUILD, "repobench_selftest")])
    try:
        return subprocess.call([
            os.path.join(BUILD, "repobench_driver"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", WORK, "--results-dir", RESULTS])
    finally:
        # A driver that died early leaves its WAL scratch behind.
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
