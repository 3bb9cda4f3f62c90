#!/usr/bin/env python3
"""Runs one workload of the TTMQO benchmark and prints its result.

    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <s>]
                             [--trace <0|1>]
    python3 perfbench/run.py --test

Run from anywhere inside a checkout.  The first call builds the benchmark
and the repository's libraries from source into .bench_build/perfbench
(Release); later calls reuse that build.  The binary then runs the
workload (see src/main.cc), and this script prints its report followed by
one JSON line with `correct`, `attempted`, `failed` and the metrics
BENCHMARK.json declares: the end_to_end ones with --trace 0, the per_layer
ones with --trace 1.  The full result, stamped with the build info, is kept
under .bench_build/results/ for compare.py.

Without --seed the workload's default seed from workloads.json is used.
--test builds and runs the benchmark's own test (fidelity against
RunExperiment, oracle mutations).

Exit status: the binary's (0 correct, 1 wrong answers, 2 bad arguments,
3 fidelity mismatch), or 2 when the sources, BENCHMARK.json or a declared
metric are missing, or the build fails.
"""
import argparse
import ctypes
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configures (once) and builds `target`, holding a lock so concurrent
    invocations in one checkout do not build over each other."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no TTMQO sources next to {HERE.name}/; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "--target", target,
                      "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    return BUILD / target


ADDR_NO_RANDOMIZE = 0x0040000  # from <sys/personality.h>


def fix_placement():
    """Runs in the child before exec: fixes where the benchmark runs and
    where its memory lies, so invocations differ only in their inputs.

    Address randomization gives every process a different heap and stack
    alignment; on this code the resulting cache conflicts move set-up time
    by up to 60% between otherwise identical invocations.  Pinning to one
    CPU (the second allowed one: CPU 0 usually takes the most interrupts)
    keeps every invocation on the same core.  Both are best effort."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except OSError:
        pass
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[1] if len(cpus) > 1 else cpus[0]})


def declared_metrics(trace):
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        test = build("perfbench_test")
        sys.exit(subprocess.run([str(test)], timeout=RUN_TIMEOUT_S).returncode)

    seeds = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in seeds or args.workload == "comment":
        fail(f"--workload must be one of "
             f"{', '.join(k for k in seeds if k != 'comment')}")
    seed = args.seed if args.seed is not None else \
        seeds[args.workload]["default_seed"]
    wanted = declared_metrics(args.trace)
    binary = build("ttmqo_perfbench")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = RESULTS / (f"{args.workload}-seed{seed}-trace{args.trace}-"
                     f"{stamp}-{os.getpid()}.json")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, preexec_fn=fix_placement)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        print(f"perfbench: no result line (exit {done.returncode})",
              file=sys.stderr)
        sys.exit(done.returncode or 2)
    for line in lines[:-1]:
        print(line)
    print(f"result file: {out.relative_to(ROOT)}")
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not measured: "
             f"{', '.join(missing)}")
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print(json.dumps(result), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
