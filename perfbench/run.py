#!/usr/bin/env python3
"""Builds and runs the end-to-end agreement benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which compiles the protocol
stack from the checkout's sources) into .bench_build/perfbench; later calls
only re-check the build.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero, without a result,
when the build fails (e.g. when the checkout holds no sources).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "agreement_bench")


def build():
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "agreement_bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
