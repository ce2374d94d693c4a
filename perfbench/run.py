#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload steady_wire --seed 1 --seconds 30 --trace 0

The first run configures and builds the fairdms library and perfbench
(Release) into .bench_build/; later runs only rebuild what changed. Build
output goes to stderr, so the last line of stdout is perfbench's JSON
result. Exits nonzero, without a result, when the sources are missing or
the build fails.
"""
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"


def build() -> bool:
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        print("perfbench: run from the repository root (library sources "
              "not found)", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main() -> int:
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
