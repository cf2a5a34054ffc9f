#!/usr/bin/env python3
"""Build the Goldfish benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <distill-lenet|fleet-tcp|shard-durable> \
        --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]

The benchmark is its own Cargo package (perfbench/Cargo.toml) that links
the repository's crates by path. It is built in release mode, offline,
into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
then run with the given arguments. Everything the benchmark prints is
passed through; its last stdout line is the JSON result. The exit code
is non-zero when the build fails or a correctness gate fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "goldfish-perfbench")
    try:
        run = subprocess.run(
            [binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
