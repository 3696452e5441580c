#!/usr/bin/env python3
"""Builds the program and runs one workload of the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program under src/ and the harness in
perfbench/ are built from source with CMake (Release) into the directory
named by $CARGO_TARGET_DIR, or .bench_build when it is unset; compiler
scratch files stay inside that directory too. The workload then runs in its
own process, and its last line of stdout is the result (see README.md).
Exits non-zero without printing a result when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def run_quiet(cmd, env):
    """Runs a build step; on failure shows its output on stderr and exits."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, env=env)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.stderr.write("build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build(build_dir):
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"], env)
    run_quiet(["cmake", "--build", build_dir, "-j", jobs,
               "--target", "perfbench"], env)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    sys.stdout.flush()
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("workload did not finish within %d s\n" % RUN_TIMEOUT_S)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
