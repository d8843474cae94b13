#!/usr/bin/env python3
"""The committed perfbench trajectory: BENCH_perfbench.jsonl at the repo root.

Each line is one entry: the end-to-end results of all four perfbench
workloads for one seed, taken from one checkout and tagged with a label.

Usage (from the repository root):

  tools/perf_trajectory.py append --label "<what was measured>" --seed 1
  tools/perf_trajectory.py append --label "<...>" --seed 7919 --root ../other
  tools/perf_trajectory.py check

`append` runs `perfbench/run.py --workload <w> --seed <seed> --trace 0` for
every workload BENCHMARK.json lists, for BENCHMARK.json's run_seconds each,
so that entries compare. It runs in the checkout at --root (default: this
repository, so `--root` lets the file hold a parent commit's entries too) and
appends one line:

  {"label": str, "seed": int, "seconds": number,
   "host": {"nproc", "build_type", "optimized", "compiler", "git_rev",
            "src_digest"},
   "workloads": {"<name>": {"correct": bool, "attempted": int,
                            "failed": int,
                            "metrics": {"<metric>": {"value", "unit"}}}},
   "par_ratio": racy_wide_par dumps_per_s / racy_wide dumps_per_s}

The host record is perfbench's own, which every workload run must repeat;
`par_ratio` is the throughput of min(4, nproc) dump workers over one.

`check` validates every line: the workload names, the end-to-end metric
names and units of BENCHMARK.json, finite values, and `par_ratio`.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_perfbench.jsonl")
HOST_KEYS = ("nproc", "build_type", "optimized", "compiler", "git_rev",
             "src_digest")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return workloads, units, spec["run_seconds"]


def par_ratio(entry):
    serial = entry["workloads"]["racy_wide"]["metrics"]["dumps_per_s"]["value"]
    par = entry["workloads"]["racy_wide_par"]["metrics"]["dumps_per_s"]["value"]
    return par / serial


def run_workload(root, workload, seed, seconds):
    """One untraced perfbench run: (host record, result object)."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"], cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"perfbench {workload} seed {seed} failed "
                         f"(exit {out.returncode}) in {root}")
    record = json.loads(lines[0])["record"]
    return {k: record[k] for k in HOST_KEYS}, json.loads(lines[-1])


def append(args):
    workloads, _, seconds = load_spec()
    entry = {"label": args.label, "seed": args.seed, "seconds": seconds,
             "host": None, "workloads": {}}
    for workload in workloads:
        host, result = run_workload(os.path.abspath(args.root), workload,
                                    args.seed, seconds)
        if entry["host"] not in (None, host):
            raise SystemExit(f"{workload}: host record {host} differs from "
                             f"{entry['host']}")
        entry["host"] = host
        entry["workloads"][workload] = {
            k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(f"{workload}: " + ", ".join(
            f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()))
    entry["par_ratio"] = par_ratio(entry)
    problems = validate(entry)
    if problems:
        raise SystemExit("entry not appended:\n  " + "\n  ".join(problems))
    with open(TRAJECTORY, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended '{args.label}' seed {args.seed} to {TRAJECTORY}")


def validate(entry):
    """The problems with one entry, as strings (empty when it is valid)."""
    workloads, units, _ = load_spec()
    problems = []
    for key in ("label", "seed", "seconds", "host", "workloads", "par_ratio"):
        if key not in entry:
            problems.append(f"missing '{key}'")
    if problems:
        return problems
    if set(entry["host"]) != set(HOST_KEYS):
        problems.append(f"host keys {sorted(entry['host'])}, want "
                        f"{sorted(HOST_KEYS)}")
    if sorted(entry["workloads"]) != sorted(workloads):
        return problems + [f"workloads {sorted(entry['workloads'])}, want "
                           f"{sorted(workloads)}"]
    for workload, result in entry["workloads"].items():
        metrics = result.get("metrics", {})
        if set(metrics) != set(units):
            problems.append(f"{workload}: metrics {sorted(metrics)}, want "
                            f"{sorted(units)}")
            continue
        for name, metric in metrics.items():
            value = metric.get("value")
            if metric.get("unit") != units[name]:
                problems.append(f"{workload}.{name}: unit "
                                f"{metric.get('unit')!r}, want {units[name]!r}")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{workload}.{name}: value {value!r}")
    if not problems and not math.isclose(entry["par_ratio"], par_ratio(entry),
                                         rel_tol=1e-9):
        problems.append(f"par_ratio {entry['par_ratio']} disagrees with the "
                        f"two dumps_per_s")
    return problems


def check(_args):
    if not os.path.isfile(TRAJECTORY):
        raise SystemExit(f"{TRAJECTORY}: missing")
    bad = number = 0
    with open(TRAJECTORY, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            try:
                problems = validate(json.loads(line))
            except (json.JSONDecodeError, AttributeError, TypeError) as e:
                problems = [f"malformed entry: {e}"]
            for p in problems:
                print(f"{TRAJECTORY}:{number}: {p}")
            bad += bool(problems)
    if bad:
        raise SystemExit(f"perf trajectory check FAILED ({bad} bad entries)")
    print(f"perf trajectory check OK ({number} entries)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    a = sub.add_parser("append", help="run perfbench and append one entry")
    a.add_argument("--label", required=True)
    a.add_argument("--seed", type=int, required=True)
    a.add_argument("--root", default=ROOT,
                   help="checkout whose perfbench to run (default: this one)")
    sub.add_parser("check", help="validate every entry")
    args = parser.parse_args()
    (append if args.command == "append" else check)(args)


if __name__ == "__main__":
    main()
