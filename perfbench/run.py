#!/usr/bin/env python3
"""Crash-to-verdict benchmark: builds perfbench/ from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload fleet_mix --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selfcheck

The build goes to .bench_build/perfbench (Release). The binary prints a host
record, its tables, and as its last line one JSON object with the keys
correct, attempted, failed and metrics; this script passes that output
through and exits with the binary's code. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fleet_mix", "racy_wide", "racy_wide_par", "long_run")
# A run must end within 180 s; the binary bounds its own timed loop well
# below this, so hitting it means something hung.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "res", "runtime.h")):
        fail("no src/ tree next to perfbench/: nothing to build")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                              stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0 or not os.path.isfile(BINARY):
        fail("build failed")


def source_digest():
    """Identifies the built sources when the checkout is not a git tree."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none"
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def binary_args(workload, seed, seconds, trace, tiny=False):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--git-rev", git_rev(), "--src-digest", source_digest()]
    if tiny:
        args.append("--tiny")
    return args


def run_once(args, capture):
    """Runs the binary to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              capture_output=capture)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


def selfcheck():
    """Tiny runs of every workload: exact metric names, correctness, and
    corpus digests that repeat for a seed and change with it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from %s" % (WORKLOADS,))
    problems = []
    for workload in WORKLOADS:
        digests = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            out = run_once(binary_args(workload, seed, 1, trace, tiny=True), True)
            lines = out.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s seed %d trace %d: no result line" % (workload, seed, trace))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if out.returncode != 0 or not result["correct"]:
                problems.append("%s seed %d trace %d: exit %d, correct=%s"
                                % (workload, seed, trace, out.returncode, result["correct"]))
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])
                problems.append("%s trace %d: missing %s, extra %s, unit mismatch %s"
                                % (workload, trace, missing, extra, units))
            digest = [l.split()[2].rstrip(":") for l in lines if l.startswith("corpus digest")]
            digests.setdefault(seed, set()).update(digest)
        print("%-14s corpus digests: seed 1 %s, seed 2 %s"
              % (workload, sorted(digests.get(1, ())), sorted(digests.get(2, ()))))
        if len(digests.get(1, ())) != 1:
            problems.append("%s: seed 1 gave corpus digests %s" % (workload, digests.get(1)))
        if digests.get(1) == digests.get(2):
            problems.append("%s: seeds 1 and 2 gave the same corpus" % workload)
    for p in problems:
        print("SELFCHECK FAIL: " + p)
    print("selfcheck %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny runs of every workload against BENCHMARK.json")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.selfcheck:
        return selfcheck()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    failed = 0
    for workload in workloads:
        out = run_once(binary_args(workload, args.seed, args.seconds, args.trace),
                       False)
        failed += out.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
