#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <admit-durable|live-explain|explain-batch> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built in release mode with cargo, offline, into
$CARGO_TARGET_DIR (default: .bench_build at the repository root). The
span files of traced runs go to <target dir>/perfbench-work. The arguments
are passed through; the last line of standard output is the JSON result.
The exit code is the benchmark's, or non-zero when the sources cannot be
built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "engine", "Cargo.toml")):
        print("perfbench: the engine sources are not here; nothing to build",
              file=sys.stderr)
        return 2
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # The benchmark sizes its analysis pool itself; no environment override.
    for knob in ("CWF_THREADS", "CWF_CHUNK"):
        env.pop(knob, None)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    run = subprocess.run([binary, *sys.argv[1:], "--work-dir", work], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
