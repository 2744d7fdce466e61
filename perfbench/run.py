#!/usr/bin/env python3
"""Builds and runs the hkpr serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold-push --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ with CMake under $CARGO_TARGET_DIR
(default .bench_build), writes the workload's preset graph there if it is
missing, then runs one measurement. The measurement's last stdout line is
its JSON result; build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, target, "perfbench")
    binary = os.path.join(build, "hkpr_perfbench")
    data_dir = os.path.join(build, "data")

    def step(cmd, timeout):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: step failed: " + " ".join(cmd))

    generator = []
    if (shutil.which("ninja")
            and not os.path.exists(os.path.join(build, "CMakeCache.txt"))):
        generator = ["-G", "Ninja"]
    step(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
         + generator, 300)
    step(["cmake", "--build", build, "--target", "hkpr_perfbench",
          "-j", str(os.cpu_count() or 1)], 800)
    step([binary, "--prepare", "--workload", args.workload,
          "--data-dir", data_dir], 120)
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", args.seed,
         "--seconds", args.seconds, "--trace", args.trace,
         "--data-dir", data_dir],
        timeout=RUN_TIMEOUT_S, check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
