#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads: pipeline, train-detect, kkp-storm, fleet. The build goes to
$CARGO_TARGET_DIR/perfbench when that variable is set, else to
.bench_build/perfbench; it is incremental, so only the first run compiles.
With --trace 1 the spans are written to traces/<workload>.csv inside the
build directory. The last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline", "train-detect", "kkp-storm", "fleet")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then builds incrementally. Compiler output goes to
    stderr so that stdout carries only the result."""
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        # A process group of its own, so a timeout stops the compilers too.
        proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                preexec_fn=os.setpgrp)
        try:
            code = proc.wait(timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print("perfbench: build timed out", file=sys.stderr)
            return False
        if code != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".csv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        print("perfbench: exited with code %d" % done.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
