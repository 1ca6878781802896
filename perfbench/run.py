#!/usr/bin/env python3
"""Builds and runs the Basil wall-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <ycsb-u|ycsb-z|tpcc-noproofs> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
then run with the given arguments. Its standard output passes through
unchanged; the last line is the JSON result. Build output goes to standard
error. See README.md in this directory for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "basil", "Cargo.toml")):
        print("run.py: the repository's crates/ are missing; run from a full checkout",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "basil-perfbench")
    run = subprocess.run([binary, *sys.argv[1:]], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
