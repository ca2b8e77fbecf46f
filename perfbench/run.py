#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds the
benchmark driver (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/; later calls only rebuild what changed.  Build output goes to
stderr, so the last line of stdout is always the driver's JSON result.

With --workload all every workload in BENCHMARK.json runs in turn, each
printing its metric table and JSON line; the exit code is nonzero if any of
them failed.  --trace 1 writes a Chrome trace-event file per workload to
.bench_build/trace-<workload>-<seed>.json unless --trace-out is given.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the repository sources (src/) are missing; "
                 "run from the root of a full checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_one(args, workload):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out = args.trace_out or os.path.join(
            BUILD, "trace-%s-%d.json" % (workload, args.seed))
        cmd += ["--trace-out", out]
    for b in args.break_check or []:
        cmd += ["--break", b]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out")
    p.add_argument("--break", dest="break_check", action="append",
                   choices=("serve_output", "ledger", "val_loss"),
                   help="corrupt one output so its check must fail "
                        "(self-test only)")
    args = p.parse_args()
    build()
    names = workload_names() if args.workload == "all" else [args.workload]
    worst = 0
    for name in names:
        worst = max(worst, run_one(args, name))
    return worst


if __name__ == "__main__":
    sys.exit(main())
