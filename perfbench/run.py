#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload lu-mid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. rcs_perfbench and the libraries it calls are
built from source in Release into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); an up-to-date build costs a second. Build output
goes to stderr, so the program's last stdout line stays the result JSON.
The exit code is rcs_perfbench's, or 2 when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", build_dir, "--target", "rcs_perfbench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    # An existing build tree re-runs cmake itself when a CMakeLists changes.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, configure)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "rcs_perfbench")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
