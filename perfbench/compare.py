#!/usr/bin/env python3
"""Compares two sets of benchmark results measured on the same machine.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files written by run.py
(.bench_build/results/*.json) or directories holding them.  Results are
grouped by (workload, trace).  For each metric the script prints the median
of each side, the change as a share of the base median, and, for end-to-end
metrics, whether the change is worse than the metric's bound in
BENCHMARK.json.

It refuses (exit 2) to compare results whose build info differs in
hostname, core count, compiler, build type, flags or span setting: a ratio
across machines or builds measures the machines.  The git SHA may differ.
There are no literal baselines; both sides are measured.

Exit status: 0 when no end-to-end metric is worse than its bound, 1 when
one is, 2 when the results cannot be compared.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_MACHINE = ("hostname", "hardware_concurrency", "compiler", "build_type",
                "flags", "spans_compiled_out")


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"compare: no result files in {arg}")
    return [(f, json.loads(f.read_text())) for f in files]


def machine(result):
    return {key: result["build"].get(key) for key in SAME_MACHINE}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    reference_file, reference = base[0]
    for path, result in base + change:
        if machine(result) != machine(reference):
            diff = {k: (machine(reference)[k], machine(result)[k])
                    for k in SAME_MACHINE
                    if machine(result)[k] != machine(reference)[k]}
            print(f"compare: refusing: {path} was built or run elsewhere "
                  f"than {reference_file}: {diff}", file=sys.stderr)
            sys.exit(2)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] +
              spec["per_layer"]}

    def group(results):
        groups = {}
        for _, r in results:
            key = (r["workload"], r["trace"])
            for name, metric in r["metrics"].items():
                groups.setdefault(key, {}).setdefault(name, []).append(
                    metric["value"])
        return groups

    base_groups, change_groups = group(base), group(change)
    regressions = 0
    for key in sorted(set(base_groups) & set(change_groups)):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        print(f"  {'metric':34s} {'base':>14s} {'change':>14s} {'delta':>9s}")
        for name in sorted(base_groups[key]):
            if name not in change_groups[key]:
                continue
            a = statistics.median(base_groups[key][name])
            b = statistics.median(change_groups[key][name])
            delta = (b - a) / a if a else 0.0
            note = ""
            if name in e2e and trace == 0:
                worse = -delta if better[name] == "higher" else delta
                if worse > e2e[name]["bound"]:
                    note = f"  WORSE than bound {e2e[name]['bound']}"
                    regressions += 1
            print(f"  {name:34s} {a:14.6g} {b:14.6g} {delta:+9.2%}{note}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
