#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ctl|io|boot --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
simulator and the benchmark binary under $CARGO_TARGET_DIR (default
.bench_build) with CMake; later runs only check the build is current. Build
output goes to stderr, so the last line of stdout is the binary's JSON
result. The exit code is the binary's: non-zero when an output check failed.
Traced runs (--trace 1) also write their spans to
<build dir>/perfbench-spans/<workload>-seed<N>.tsv.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "ukvm_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ctl", "io", "boot"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    # Verifier self-test only: expect a deliberately wrong data pattern.
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 1

    cmd = [os.path.join(out_dir, "ukvm_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out_dir, "..", "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.tsv")]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")

    # The simulator's own trace/bench exporters write wherever these point;
    # keep every write inside the checkout.
    env = {k: v for k, v in os.environ.items()
           if k not in ("UKVM_TRACE_DIR", "UKVM_BENCH_JSON")}
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
