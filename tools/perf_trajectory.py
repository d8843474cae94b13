#!/usr/bin/env python3
"""The committed perfbench trajectory: BENCH_perfbench.jsonl at the repo root.

Each line is one entry: the end-to-end results of all four perfbench
workloads for one seed, taken from one checkout and tagged with a label.

Usage (from the repository root):

  tools/perf_trajectory.py append --label "<what was measured>" --seed 1
  tools/perf_trajectory.py append --label "<...>" --seed 7919 --root ../other
  tools/perf_trajectory.py check
  tools/perf_trajectory.py pairs --root ../parent --workload fleet_mix \
      --seed 1 --pairs 10

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

`pairs` compares a parent checkout (--root) with this one on one workload
and seed. It runs perfbench alternately in the two checkouts, for
BENCHMARK.json's run_seconds each; the side that runs first alternates from
pair to pair. For every end-to-end metric it prints each side's median and
quartiles, the ratio of the medians (change / parent), the pairs the change
won (strictly better in the direction of `better`; ties count for neither
side), and a verdict:

  gain              the change won at least 9 of 10 pairs and the medians
                    differ, in its favour, by more than the parent's
                    interquartile range;
  worse than bound  the change's median is worse than the parent's by more
                    than the metric's bound;
  unresolved        neither, and the parent's interquartile range is wider
                    than the bound (unless every change run beat every
                    parent run);
  within bound      neither, otherwise.

It also prints failed/attempted submissions per side, the as-measured
`dumps_per_s` medians (and the as-measured `vm_msteps_per_s` medians when
the runs print that line, as `long_run` does), and whether the corpus
digest, the per-stream report digests and the ground-truth tables agree on
every stream both sides ran. A part that neither side printed reads "none
printed" and does not count towards AGREE (`long_run` prints neither report
digests nor a ground-truth table); a part that only one side printed, or
that no run printed at all, makes the verdict DIFFER or NOTHING COMPARED.

Last, it prints where each side's `ReferenceLoop` (the host-speed probe
that scales the metrics) starts, as its address mod 64, read with `nm -C`
from that checkout's .bench_build/perfbench/perfbench; "unknown" when nm,
the binary or the symbol is missing. A change elsewhere in the binary can
move the loop, and a moved loop can time differently on the same host, so a
warning line follows when the two offsets differ: then the scaled ratios
carry that artifact, and the as-measured medians are the check.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_perfbench.jsonl")
HOST_KEYS = ("nproc", "build_type", "optimized", "compiler", "git_rev",
             "src_digest")


def read_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def load_spec():
    spec = read_benchmark()
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return workloads, units, spec["run_seconds"]


def par_ratio(entry):
    serial = entry["workloads"]["racy_wide"]["metrics"]["dumps_per_s"]["value"]
    par = entry["workloads"]["racy_wide_par"]["metrics"]["dumps_per_s"]["value"]
    return par / serial


def run_workload(root, workload, seed, seconds):
    """One untraced perfbench run: (host record, result object, stdout)."""
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
    return {k: record[k] for k in HOST_KEYS}, json.loads(lines[-1]), out.stdout


def append(args):
    workloads, _, seconds = load_spec()
    entry = {"label": args.label, "seed": args.seed, "seconds": seconds,
             "host": None, "workloads": {}}
    for workload in workloads:
        host, result, _ = run_workload(os.path.abspath(args.root), workload,
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


def quartiles(values):
    """(first quartile, median, third quartile), interpolating linearly."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, wins, better, bound):
    """The choosing-metrics verdict for one metric's paired runs."""
    sign = 1 if better == "higher" else -1
    q1, median, q3 = quartiles(parent)
    gain = (statistics.median(change) - median) * sign
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return "gain"
    if gain < -bound * abs(median):
        return "worse than bound"
    if (q3 - q1 > bound * abs(median)
            and min(v * sign for v in change) <= max(v * sign for v in parent)):
        return "unresolved"
    return "within bound"


def identity(stdout):
    """What a run's report stream must repeat: the corpus digest, each
    stream's report digest, and the ground-truth table."""
    corpus, streams, truth = None, {}, []
    in_truth = False
    for line in stdout.splitlines():
        if line.startswith("corpus digest "):
            corpus = line.split()[2].rstrip(":")
        match = re.match(r"stream (\d+) report digest ([0-9a-f]+)$", line)
        if match:
            streams[int(match.group(1))] = match.group(2)
        if line.startswith("ground truth over distinct dumps"):
            in_truth = True
        elif in_truth and not line.startswith("  "):
            in_truth = False
        if in_truth:
            truth.append(line)
    return corpus, streams, "\n".join(truth)


def as_measured(name, stdout):
    """The first number after `name` at the start of a line, or NaN."""
    match = re.search(rf"^{name} ([0-9.eE+-]+)", stdout, re.MULTILINE)
    return float(match.group(1)) if match else math.nan


def reference_loop_offset(root):
    """ReferenceLoop's address mod 64 in root's perfbench binary, as a
    string, or "unknown"."""
    binary = os.path.join(root, ".bench_build", "perfbench", "perfbench")
    if shutil.which("nm") is None or not os.path.isfile(binary):
        return "unknown"
    out = subprocess.run(["nm", "-C", binary], capture_output=True, text=True)
    for line in out.stdout.splitlines():
        fields = line.split(maxsplit=2)
        if (len(fields) == 3 and fields[1] in ("t", "T")
                and "ReferenceLoop(" in fields[2]):
            return str(int(fields[0], 16) % 64)
    return "unknown"


def compare_identity(runs):
    """One line on whether both sides' runs agree on what identity() reads.

    A part that no run of either side printed reads "none printed" and does
    not count; one that only some runs printed differs."""
    parsed = {side: [identity(out) for out in outs]
              for side, outs in runs.items()}
    parts, verdicts = [], []

    def once_per_run(index, name):
        """Compares a part every run prints once: one value on both sides."""
        values = {side: {p[index] for p in ps} for side, ps in parsed.items()}
        if not any(v for vs in values.values() for v in vs):
            parts.append(f"{name} none printed")
            return None
        ok = (len(values["parent"]) == 1 and all(values["parent"])
              and values["parent"] == values["change"])
        verdicts.append(ok)
        return values, ok

    corpus = once_per_run(0, "corpus digest")
    if corpus:
        values, _ = corpus
        parts.append(f"corpus digest {sorted(map(str, values['parent']))} vs "
                     f"{sorted(map(str, values['change']))}")

    streams = {}
    for side, ps in parsed.items():
        for _, digests, _ in ps:
            for k, digest in digests.items():
                streams.setdefault(k, {}).setdefault(side, set()).add(digest)
    printers = {side for sides in streams.values() for side in sides}
    if not printers:
        parts.append("report digests none printed")
    elif len(printers) == 1:
        verdicts.append(False)
        parts.append(f"report digests printed by {printers.pop()} only")
    else:
        shared = [k for k, sides in streams.items() if len(sides) == 2]
        split = [k for k in shared
                 if len(streams[k]["parent"] | streams[k]["change"]) != 1]
        verdicts.append(bool(shared) and not split)
        parts.append(f"report digests {len(shared) - len(split)}/"
                     f"{len(shared)} shared streams equal"
                     + (f" (differ: {split})" if split else ""))

    truth = once_per_run(2, "ground-truth tables")
    if truth:
        parts.append(f"ground-truth tables {'equal' if truth[1] else 'differ'}")

    word = ("NOTHING COMPARED" if not verdicts
            else "AGREE" if all(verdicts) else "DIFFER")
    return f"identity: {word}: " + "; ".join(parts)


def pairs(args):
    spec = read_benchmark()
    seconds = spec["run_seconds"]
    roots = {"parent": os.path.abspath(args.root), "change": ROOT}
    results = {"parent": [], "change": []}
    outputs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            _, result, stdout = run_workload(roots[side], args.workload,
                                             args.seed, seconds)
            results[side].append(result)
            outputs[side].append(stdout)
            sys.stderr.write(f"pair {i + 1}/{args.pairs} {side}: dumps_per_s "
                             f"{result['metrics']['dumps_per_s']['value']:.4g}"
                             "\n")
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of "
          f"{seconds}-s runs, parent {roots['parent']}, change {roots['change']}")
    print(f"{'metric':<17} {'parent median [q1-q3]':>28} "
          f"{'change median [q1-q3]':>28} {'ratio':>7} {'wins':>6}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in results}
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum((c - p) * sign > 0
                   for p, c in zip(values["parent"], values["change"]))
        cells = []
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(values[side])
            cells.append(f"{median:.4g} [{q1:.4g}-{q3:.4g}]")
        parent_median = statistics.median(values["parent"])
        ratio = (statistics.median(values["change"]) / parent_median
                 if parent_median else math.nan)
        print(f"{name:<17} {cells[0]:>28} {cells[1]:>28} {ratio:>7.3f} "
              f"{wins:>3}/{args.pairs:<2}  "
              + verdict(values["parent"], values["change"], wins,
                        metric["better"], metric["bound"]))
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        rate = statistics.median(as_measured("as measured: dumps_per_s", o)
                                 for o in outputs[side])
        line = (f"{side}: failed/attempted {failed}/{attempted}, as-measured "
                f"dumps_per_s median {rate:.4g}")
        vm_rates = [as_measured("vm_msteps_per_s", o) for o in outputs[side]]
        if not any(math.isnan(v) for v in vm_rates):
            line += (f", as-measured vm_msteps_per_s median "
                     f"{statistics.median(vm_rates):.4g}")
        print(line)
    print(compare_identity(outputs))
    offsets = {side: reference_loop_offset(root) for side, root in roots.items()}
    print(f"ReferenceLoop offset mod 64: parent {offsets['parent']}, "
          f"change {offsets['change']}")
    if "unknown" not in offsets.values() and len(set(offsets.values())) == 2:
        print("warning: ReferenceLoop offsets differ, so the host slowdown "
              "that scales the metrics may read differently on the two "
              "sides; compare the as-measured medians")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    a = sub.add_parser("append", help="run perfbench and append one entry")
    a.add_argument("--label", required=True)
    a.add_argument("--seed", type=int, required=True)
    a.add_argument("--root", default=ROOT,
                   help="checkout whose perfbench to run (default: this one)")
    sub.add_parser("check", help="validate every entry")
    p = sub.add_parser("pairs", help="alternating parent/change runs of one "
                       "workload, with a verdict per end-to-end metric")
    p.add_argument("--root", required=True, help="the parent checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    {"append": append, "check": check, "pairs": pairs}[args.command](args)


if __name__ == "__main__":
    main()
