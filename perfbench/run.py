#!/usr/bin/env python3
"""Build the placement benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload eplace-a --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/perfbench (CMake + Ninja, Release). Build
output goes to standard error; the benchmark's own output, whose last line
is the JSON result, goes to standard output. With --trace 1 a Chrome trace
of the composed flows is written next to the build.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmds = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    # Configure once; later builds re-run CMake themselves when a build file
    # changed.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        cmds.insert(0, configure)
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["eplace-a", "perf-driven"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(BUILD, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
