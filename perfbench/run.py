#!/usr/bin/env python3
"""Build and run the native MPF benchmark.

    python3 perfbench/run.py --workload funnel|rpc|gauss_jordan \
        --seed N --seconds S --trace 0|1

Run from the root of the source tree.  Builds the libraries and the
benchmark under .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench),
runs the helpers' self-test, then the benchmark.  Everything the benchmark
prints goes to stdout; its last line is the JSON result.  The exit status
is the benchmark's: non-zero when any output was wrong, the build failed,
or the run did not finish in time.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then build incrementally; build chatter to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no MPF source tree at {ROOT}")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j3"])
    steps.append([str(out / "perfbench_selftest")])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"{cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"{' '.join(cmd)} exited {done.returncode}")


def main():
    # A terminated runner exits through SystemExit, so subprocess.run kills
    # and reaps the benchmark instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["funnel", "rpc", "gauss_jordan"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build_dir()
    build(out)
    cmd = [str(out / "mpf_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(out / f"spans-{args.workload}.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or ""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stdout.write(partial)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    # Provenance and notes pass through; the result stays the last line.
    for line in lines[:-1]:
        print(line)
    if done.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited {done.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result: {lines[-1]!r}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)}")
    print(lines[-1], flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
