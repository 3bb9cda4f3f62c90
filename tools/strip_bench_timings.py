#!/usr/bin/env python3
"""Strips the machine-dependent fields from a bench artifact.

CI regenerates committed bench JSON (BENCH_bsopt.json, BENCH_hotpath.json,
BENCH_scale.json) and diffs it against the checked-in copy.  Decision counts must match exactly — they are
deterministic in the workload seed — but wall-clock timings, derived rates,
and build provenance differ per host and per commit, so both sides of the
diff pass through this filter first.

Usage: strip_bench_timings.py FILE  (filtered JSON on stdout)
"""
import json
import sys

VOLATILE_KEYS = {
    "seconds",
    "inserts_per_sec",
    "speedup_x",
    "build",
    # Hotpath/sweep/scale artifacts: wall clock, derived rates, memory and
    # host shape vary per machine; event and decision counts must not.
    "wall_ms",
    "per_run_wall_ms",
    "events_per_sec",
    "runs_per_sec",
    "speedup",
    "hardware_concurrency",
    "ns_per_event",
    "ru_maxrss_kb",
}


def strip(node):
    if isinstance(node, dict):
        return {
            key: strip(value)
            for key, value in node.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(node, list):
        return [strip(item) for item in node]
    return node


def main():
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(sys.argv[1]) as fp:
        artifact = json.load(fp)
    json.dump(strip(artifact), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
