#!/usr/bin/env python3
"""Perf-regression gate over BENCH_res_scaling.json counter metrics.

The bench binaries append one JSON object per data point (JSON Lines; see
bench/README.md for the schema). Wall-clock is machine-dependent, but the
engine/solver *counters* are deterministic for one engine run or a serial
batch — pure functions of the workload — so they regression-gate cleanly
across machines: this script compares the latest record per name against
bench/baselines.json and fails when a gated counter regresses more than the
configured tolerance.

Usage:
  tools/check_bench.py --bench build/BENCH_res_scaling.json \
      --baseline bench/baselines.json
  tools/check_bench.py --bench build/BENCH_res_scaling.json \
      --baseline bench/baselines.json --update   # rewrite the baselines

Baselines format:
  {
    "tolerance": 0.10,                 # allowed relative growth per metric
    "metrics": ["propagated_constraints", ...],
    "floor_metrics": ["clause_promotions", ...],   # optional, see below
    "records": {"<name>": {"<metric>": <value>, ...}, ...}
  }

`metrics` gate against growth (more solver work = regression). The
cross-task reuse counters point the other way: LOSING promotions or reuse
hits is the regression — `floor_metrics` gate against shrinkage by the same
tolerance. A record only participates in a gate for the metrics it has
baselined values for.

Only names present in the baselines are gated (the thread-scaling records,
whose cache-dependent counters vary with scheduling, are deliberately not
baselined). A baselined name missing from the bench output fails the check:
losing a record is a coverage regression, not a perf win.
"""

import argparse
import json
import sys


def load_bench_records(path):
    """Latest record per name from a JSON-Lines bench file."""
    records = {}
    with open(path, encoding="utf-8") as f:
        for line_number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{line_number}: bad JSON record: {e}")
            name = record.get("name")
            if not name:
                raise SystemExit(f"{path}:{line_number}: record has no name")
            records[name] = record  # later lines win: latest run per name
    return records


def check(bench_records, baseline):
    tolerance = baseline.get("tolerance", 0.10)
    metrics = baseline.get("metrics", [])
    floors = baseline.get("floor_metrics", [])
    failures = []
    improvements = []
    for name, expected in sorted(baseline.get("records", {}).items()):
        record = bench_records.get(name)
        if record is None:
            failures.append(f"{name}: record missing from bench output")
            continue
        for metric in metrics:
            if metric not in expected:
                continue
            base = expected[metric]
            got = record.get(metric)
            if got is None:
                failures.append(f"{name}: metric {metric} missing from record")
                continue
            limit = base * (1.0 + tolerance)
            if got > limit:
                growth = (got / base - 1.0) * 100 if base else float("inf")
                failures.append(
                    f"{name}: {metric} regressed {base} -> {got} "
                    f"(+{growth:.1f}%, tolerance {tolerance:.0%})")
            elif base and got < base * (1.0 - tolerance):
                improvements.append(
                    f"{name}: {metric} improved {base} -> {got}")
        for metric in floors:
            if metric not in expected:
                continue
            base = expected[metric]
            if not base:
                # A floor of 0 can never fire (any value >= 0 passes), so a
                # zero baseline silently gates nothing. That is always a
                # baselining mistake: either the record genuinely has no
                # reuse (then drop the floor from it) or the baseline was
                # captured from a broken run (then re-capture it).
                failures.append(
                    f"{name}: floor metric {metric} baselined at 0 gates "
                    f"nothing — remove it from this record or baseline a "
                    f"real value")
                continue
            got = record.get(metric)
            if got is None:
                failures.append(f"{name}: metric {metric} missing from record")
                continue
            if got < base * (1.0 - tolerance):
                drop = (1.0 - got / base) * 100 if base else 0.0
                failures.append(
                    f"{name}: {metric} reuse dropped {base} -> {got} "
                    f"(-{drop:.1f}%, tolerance {tolerance:.0%})")
            elif got > base * (1.0 + tolerance):
                improvements.append(
                    f"{name}: {metric} reuse grew {base} -> {got}")
    return failures, improvements


def update_baselines(bench_records, baseline):
    """Refresh every baselined value (and keep the gated name set) in place.

    Growth metrics refresh uniformly; floor metrics refresh only where a
    record already baselines them (reuse counters are opt-in per record —
    most records legitimately have zero promotions).
    """
    metrics = baseline.get("metrics", [])
    floors = baseline.get("floor_metrics", [])
    for name, expected in baseline.get("records", {}).items():
        record = bench_records.get(name)
        if record is None:
            raise SystemExit(f"cannot update: {name} missing from bench output")
        refreshed = {
            metric: record[metric] for metric in metrics if metric in record
        }
        for metric in floors:
            if metric not in record or metric not in expected:
                continue
            if not record[metric]:
                # Refusing to write a floor of 0: it would gate nothing (see
                # check()). A reuse counter that measured 0 means the bench
                # lost that reuse entirely — fix the bench or drop the floor
                # from this record, don't bake the dead gate in.
                raise SystemExit(
                    f"cannot update: {name}: floor metric {metric} measured "
                    f"0 — a zero floor gates nothing; fix the bench or drop "
                    f"the floor from this record")
            refreshed[metric] = record[metric]
        baseline["records"][name] = refreshed
    return baseline


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True,
                        help="BENCH_res_scaling.json produced by the benches")
    parser.add_argument("--baseline", required=True,
                        help="bench/baselines.json with the gated records")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baselines from the bench output")
    args = parser.parse_args()

    bench_records = load_bench_records(args.bench)
    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)

    if args.update:
        baseline = update_baselines(bench_records, baseline)
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"updated {args.baseline} "
              f"({len(baseline['records'])} records)")
        return 0

    failures, improvements = check(bench_records, baseline)
    for line in improvements:
        print(f"NOTE (refresh baselines?): {line}")
    for line in failures:
        print(f"REGRESSION: {line}")
    if failures:
        print(f"bench check FAILED ({len(failures)} regression(s))")
        return 1
    gated = len(baseline.get("records", {}))
    print(f"bench check OK ({gated} records within "
          f"{baseline.get('tolerance', 0.10):.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
