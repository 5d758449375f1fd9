#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built with dune into
.bench_build (its own build directory, the shared dune cache off, so
nothing is written outside the checkout), then main.exe runs with the
given arguments and BENCHMARK.json as its declaration. Build output goes
to standard error; standard output is the benchmark's own, ending with
its JSON result line. Exits non-zero, without a result, when the build
or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")

# A cold build compiles the whole simulator; a run is bounded by the
# benchmark's own --seconds plus its set-up, checks and traced pass.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at the checkout root", file=sys.stderr)
        return 2
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", "./perfbench/main.exe",
    ]
    code = run(build, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code
    spans = os.path.join(BUILD_DIR, "perfbench-spans.json")
    cmd = [EXE, *sys.argv[1:], "--spec", "BENCHMARK.json", "--spans-out", spans]
    return run(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
