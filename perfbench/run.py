#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ch4-flow --seed 1 --seconds 25 --trace 0

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build` at the repository root), then runs it with the given
arguments. The benchmark's last line of standard output is its result
object; build output goes to standard error. Spans of traced runs and the
per-seed records of earlier runs are kept in `<target dir>/perfbench-out`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for at most a minute and checks for a few more seconds; a
# hung run is stopped well before three minutes.
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: repository sources (crates/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, cwd=ROOT)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:] + ["--out-dir", out_dir],
                             env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
