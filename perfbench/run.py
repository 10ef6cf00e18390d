#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload swe|mswe|gridops|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen-refs

Builds the harness (perfbench/CMakeLists.txt, which compiles the compiler
and simulator libraries from ../src) into .bench_build/perfbench at the
repository root, then runs one workload. The harness prints every metric
by name and unit, a configuration stamp, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

--regen-refs rewrites perfbench/refs/ (one file per program) with the NIR
interpreter,
the semantic oracle every timed run is checked against (about a minute).

Exit codes: 0 ok, 1 an output check failed, 2 build or usage error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFS = os.path.join(HERE, "refs")
WORKLOADS = ("swe", "mswe", "gridops", "serve_mix")


def step(cmd):
    """Runs a build step with its output on stderr; exits 2 on failure."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit(2)


def build():
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(BUILD, "perfbench")


def commit():
    """The checkout's commit, when it is a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--regen-refs", action="store_true")
    args = ap.parse_args()
    if args.regen_refs:
        return subprocess.run([build(), "--regen-refs", REFS]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")
    harness = build()
    return subprocess.run([
        harness, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--refs", REFS, "--commit", commit()
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
