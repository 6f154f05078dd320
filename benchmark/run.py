#!/usr/bin/env python3
"""Build and run the logic2layout end-to-end benchmark.

Run from the root of a checkout:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: semester-real, flow-designs (see
benchmark/NOTES.md). The first call configures and builds the benchmark
package (benchmark/CMakeLists.txt, which compiles the repository's src/
tree) into .bench_build/; later calls only rebuild what changed. The
binary's output is passed through: a metric table, then one JSON line.
Journals are written under .bench_build/ and removed before exit.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "l2l_bench")


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("benchmark: no src/ tree next to benchmark/; run from a checkout")
    log = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "l2l_bench", "-j", jobs])
    with open(log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.exit("benchmark: build failed, see " + log)


def main():
    build()
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run([BINARY, "--work-dir", work] + sys.argv[1:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
