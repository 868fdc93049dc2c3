#!/usr/bin/env python3
"""Build the ATENA benchmark from source and run it.

    python3 perfbench/run.py --workload train|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); digests that later runs are checked against go
to perfbench-state inside it. Cargo's output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits with the build's or
the benchmark's exit code.
"""

import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
env = dict(os.environ, CARGO_TARGET_DIR=target)
build = subprocess.run(
    ["cargo", "build", "--release", "--offline", "--quiet",
     "--manifest-path", os.path.join(here, "Cargo.toml")],
    env=env, stdout=sys.stderr)
if build.returncode != 0:
    sys.exit(build.returncode)
bench = subprocess.run(
    [os.path.join(target, "release", "atena-perfbench"), *sys.argv[1:],
     "--state-dir", os.path.join(target, "perfbench-state")])
sys.exit(bench.returncode)
