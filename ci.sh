#!/usr/bin/env bash
# Local CI. Static analysis first (ttmqo_lint, clang-tidy, format diff),
# then an explicit build matrix:
#
#   config         flags                                  what runs
#   -------------  -------------------------------------  -------------------------------
#   build          -DENABLE_WERROR=ON                     unit/integration/soak tiers
#   build-asan     ENABLE_SANITIZERS + ENABLE_WERROR      tiers, chaos soak, sweep determinism
#   build-release  CMAKE_BUILD_TYPE=Release               bench artifact diffs, perfbench
#                                                         fidelity + full-size oracle,
#                                                         obs gate
#   build-tsan     ENABLE_TSAN + ENABLE_WERROR            sweep pool + fig4 (BLOCKING)
#
# Static-analysis policy: ttmqo_lint and TSan are blocking; clang-tidy is
# blocking whenever a clang-tidy binary exists (this container ships none,
# so the step records SKIP rather than silently passing); the clang-format
# diff is report-only until a tree-wide reformat lands. Logs land in
# ci-artifacts/ alongside the chaos soak's postmortem dumps, and a
# per-step pass/fail summary table prints at the end no matter how the
# run exits.
#
# Usage: ./ci.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"
CTEST_ARGS=("$@")
ARTIFACTS="ci-artifacts"
rm -rf "${ARTIFACTS}"
mkdir -p "${ARTIFACTS}"

# ---------------------------------------------------------------------------
# Step registry: every step records PASS / FAIL / WARN (report-only failure)
# / SKIP (tool unavailable); the table prints even when a blocking step
# aborts the run.

STEP_NAMES=()
STEP_RESULTS=()
record_step() { STEP_NAMES+=("$1"); STEP_RESULTS+=("$2"); }

print_summary() {
  local status=$?
  echo
  echo "=== ci summary ==="
  printf '%-28s %s\n' "step" "result"
  printf '%-28s %s\n' "----------------------------" "------------------"
  local i
  for i in "${!STEP_NAMES[@]}"; do
    printf '%-28s %s\n' "${STEP_NAMES[$i]}" "${STEP_RESULTS[$i]}"
  done
  if [ "${status}" -eq 0 ]; then
    echo "=== all blocking steps passed ==="
  else
    echo "=== CI FAILED (first failing step above) ==="
  fi
}
trap print_summary EXIT

# run_step NAME blocking|report CMD...: runs CMD, records the outcome.  A
# blocking failure exits immediately (the summary still prints); a report
# failure records WARN and continues.
run_step() {
  local name="$1" mode="$2"
  shift 2
  echo "=== ${name} ==="
  if "$@"; then
    record_step "${name}" PASS
  elif [ "${mode}" = blocking ]; then
    record_step "${name}" FAIL
    exit 1
  else
    record_step "${name}" "WARN (non-gating)"
  fi
}

skip_step() {
  echo "=== ${1}: SKIPPED (${2}) ==="
  record_step "$1" "SKIP (${2})"
}

# ---------------------------------------------------------------------------
# Test tiers (unchanged shape: unit -> integration -> soak, each under its
# own timeout, with a 5-slowest report per configuration).

run_tier() {
  local dir="$1" label="$2" timeout="$3"
  echo "--- test: ${dir} [${label}, timeout ${timeout}s] ---"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -L "${label}" --timeout "${timeout}" "${CTEST_ARGS[@]}" || return 1
  # Each ctest invocation overwrites LastTest.log; accumulate the tiers so
  # the slowest-test report covers the whole configuration.
  cat "${dir}"/Testing/Temporary/LastTest.log >> \
    "${dir}"/Testing/Temporary/AllTiers.log 2>/dev/null || true
}

report_slowest() {
  local dir="$1"
  local log="${dir}/Testing/Temporary/AllTiers.log"
  [ -f "${log}" ] || return 0
  echo "--- 5 slowest tests (${dir}) ---"
  awk '/^[0-9]+\/[0-9]+ Testing: /{name=substr($0, index($0, "Testing: ")+9)}
       /Test time =/{printf "%10.3f sec  %s\n", $(NF-1), name}' "${log}" |
    sort -rn | head -5
  rm -f "${log}"
}

# configure_and_build DIR [cmake flags...] [-- target...]: flags go to the
# configure step; everything after `--` narrows the build to those targets.
configure_and_build() {
  local dir="$1"
  shift
  local flags=() targets=()
  while [ $# -gt 0 ]; do
    if [ "$1" = "--" ]; then
      shift
      targets=("$@")
      break
    fi
    flags+=("$1")
    shift
  done
  echo "--- configure: ${dir} (${flags[*]-}) ---"
  cmake -B "${dir}" -S . "${flags[@]}" >/dev/null
  echo "--- build: ${dir} ---"
  if [ "${#targets[@]}" -gt 0 ]; then
    cmake --build "${dir}" -j "${JOBS}" --target "${targets[@]}"
  else
    cmake --build "${dir}" -j "${JOBS}"
  fi
}

run_tiers() {
  local dir="$1"
  run_tier "${dir}" unit 60 &&
    run_tier "${dir}" integration 300 &&
    run_tier "${dir}" soak 600
  local rc=$?
  report_slowest "${dir}"
  return "${rc}"
}

# ---------------------------------------------------------------------------
# Static analysis, layer 1: the project determinism linter (blocking).
# Rules, allowlists, and the escape hatch are documented in tools/ttmqo_lint.

lint_tree() {
  python3 tools/ttmqo_lint 2>&1 | tee "${ARTIFACTS}/ttmqo_lint.log"
}
run_step "ttmqo_lint" blocking lint_tree

# Static analysis, layer 2: clang-tidy over the compilation database.
# Blocking when the tool exists; this needs the plain build configured
# first, so the step runs right after that build below.
find_clang_tidy() {
  local c
  for c in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
           clang-tidy-16 clang-tidy-15 clang-tidy-14; do
    if command -v "${c}" >/dev/null 2>&1; then
      echo "${c}"
      return 0
    fi
  done
  return 1
}

clang_tidy_step() {
  local tidy="$1" dir="$2"
  # The project's own translation units from the compilation database;
  # system/third-party TUs never appear there because only this tree is
  # compiled.
  python3 - "${dir}/compile_commands.json" <<'EOF' > "${ARTIFACTS}/tidy-files.txt"
import json, sys
for entry in json.load(open(sys.argv[1])):
    f = entry["file"]
    if any(s in f for s in ("/src/", "/examples/", "/bench/", "/tests/")):
        print(f)
EOF
  xargs -a "${ARTIFACTS}/tidy-files.txt" -P "${JOBS}" -n 4 \
    "${tidy}" -p "${dir}" --quiet 2>&1 | tee "${ARTIFACTS}/clang-tidy.log"
  # xargs exits non-zero if any invocation found (error-promoted) findings.
}

# Static analysis, layer 3: format diff (report-only by design — see
# .clang-format; no tree-wide reformat has landed yet).
format_diff() {
  git ls-files '*.cc' '*.h' > "${ARTIFACTS}/format-files.txt"
  xargs -a "${ARTIFACTS}/format-files.txt" clang-format --dry-run -Werror \
    2>&1 | tee "${ARTIFACTS}/format-diff.log"
}
if command -v clang-format >/dev/null 2>&1; then
  run_step "format-diff" report format_diff
else
  skip_step "format-diff" "clang-format not installed"
fi

# ---------------------------------------------------------------------------
# Matrix leg 1: plain build (warnings are errors), all test tiers, then
# clang-tidy against its compilation database.

run_step "build (werror)" blocking \
  configure_and_build build -DENABLE_WERROR=ON
run_step "tests: build" blocking run_tiers build

TIDY_BIN="$(find_clang_tidy || true)"
if [ -n "${TIDY_BIN}" ]; then
  run_step "clang-tidy" blocking clang_tidy_step "${TIDY_BIN}" build
else
  skip_step "clang-tidy" "no clang-tidy binary on this toolchain"
fi

# ---------------------------------------------------------------------------
# Matrix leg 2: ASan+UBSan (LeakSanitizer gates too: recurring events live
# in the simulator's pooled slab, so any leak report is a real leak).

run_step "build-asan (werror)" blocking \
  configure_and_build build-asan -DENABLE_SANITIZERS=ON -DENABLE_WERROR=ON
run_step "tests: build-asan" blocking run_tiers build-asan

# Chaos soak under the sanitizers: random transient outages plus link loss,
# three seeds each, the full reliability matrix (baseline/off, ttmqo/off
# and ttmqo/arq) per seed; non-zero exit on any reliability-
# invariant violation — including the arq completeness floor and the
# every-epoch coverage-annotation check.  With --postmortem-dir a failing
# run leaves its last 256 trace events, as --trace-out JSON Lines, in one
# file per violation in the artifacts dir.
chaos_soak() {
  local dir="${ARTIFACTS}/postmortem"
  # Both invocations always run, so the log shows each one's table and
  # exit status even when the first fails.  Each dumps into its own
  # directory: the dump file names do not say which invocation failed.
  ./build-asan/bench/chaos_soak --runs=3 --seed=1 \
    --postmortem-dir="${dir}/plain"
  local plain_rc=$?
  ./build-asan/bench/chaos_soak --runs=3 --seed=1 --link-loss=0.1 \
    --floor=0.4 --postmortem-dir="${dir}/link-loss-0.1"
  local lossy_rc=$?
  local rc=0
  if [ "${plain_rc}" -ne 0 ] || [ "${lossy_rc}" -ne 0 ]; then rc=1; fi
  if [ "${rc}" -ne 0 ]; then
    echo "chaos soak FAILED — plain run exit ${plain_rc}," \
      "--link-loss=0.1 run exit ${lossy_rc}"
    echo "postmortem dumps preserved in ${dir}:"
    ls -lR "${dir}" 2>/dev/null || true
    # Line count and last line per dump, so an empty dump shows here.
    local dump
    for dump in "${dir}"/*/*; do
      [ -f "${dump}" ] || continue
      echo "${dump}: $(wc -l < "${dump}") lines, last:"
      tail -n 1 "${dump}"
    done
  fi
  return "${rc}"
}
run_step "chaos-soak (asan)" blocking chaos_soak

# The committed reliability bench artifact must match what the code
# produces: regenerate the loss-axis x profile matrix and compare every
# count exactly (build provenance is stripped from both sides).  Catches
# both nondeterminism and a stale BENCH_reliability.json.
reliability_bench() {
  ./build-asan/bench/chaos_soak --side=6 \
    --bench-out="${ARTIFACTS}/BENCH_reliability.json" &&
    python3 tools/strip_bench_timings.py BENCH_reliability.json \
      > "${ARTIFACTS}/BENCH_reliability.committed.json" &&
    python3 tools/strip_bench_timings.py \
      "${ARTIFACTS}/BENCH_reliability.json" \
      > "${ARTIFACTS}/BENCH_reliability.fresh.json" &&
    diff -u "${ARTIFACTS}/BENCH_reliability.committed.json" \
      "${ARTIFACTS}/BENCH_reliability.fresh.json"
}
run_step "reliability-bench (asan)" blocking reliability_bench

# The tier-1 index differential suite, explicitly under ASan: the indexed
# candidate search must match the naive oracle byte-for-byte (it also runs
# in the integration tier above; this dedicated step keeps the equivalence
# gate visible in the summary even if tier labels are ever reshuffled).
bs_opt_equivalence() {
  ./build-asan/tests/bs_opt_equivalence_test
}
run_step "bs-opt-equivalence (asan)" blocking bs_opt_equivalence

# The sweep orchestrator's cross-thread determinism check: the same spec at
# jobs=1 and jobs=hardware must produce byte-identical canonical reports.
sweep_determinism() {
  ./build-asan/examples/run_sweep \
    --spec="grids=4 workloads=A,C modes=baseline,ttmqo seeds=1 duration-ms=49152" \
    --bench-out=/tmp/ttmqo_sweep_ci.json
}
run_step "sweep-determinism (asan)" blocking sweep_determinism

# ---------------------------------------------------------------------------
# Matrix leg 3: Release — the committed bench artifacts' count diffs and the
# perfbench fidelity test (blocking) and the observability-overhead gate
# (blocking at 3%).

run_step "build-release" blocking \
  configure_and_build build-release -DCMAKE_BUILD_TYPE=Release \
  -- hotpath obs_overhead micro_bs_opt scalability

# The committed optimizer-scaling artifact must match what the code
# produces: regenerate the insert-throughput curve and compare the decision
# counts exactly (timings and build provenance are host-dependent and are
# stripped from both sides; the binary itself exits non-zero if the indexed
# and naive paths ever disagree on a decision).
bsopt_bench() {
  ./build-release/bench/micro_bs_opt \
    --curve-out="${ARTIFACTS}/BENCH_bsopt.json" &&
    python3 tools/strip_bench_timings.py BENCH_bsopt.json \
      > "${ARTIFACTS}/BENCH_bsopt.committed.json" &&
    python3 tools/strip_bench_timings.py "${ARTIFACTS}/BENCH_bsopt.json" \
      > "${ARTIFACTS}/BENCH_bsopt.fresh.json" &&
    diff -u "${ARTIFACTS}/BENCH_bsopt.committed.json" \
      "${ARTIFACTS}/BENCH_bsopt.fresh.json"
}
run_step "bsopt-bench (release)" blocking bsopt_bench

# The committed hotpath artifact must match what the code produces: the
# event counts of every part — sweep, dense contention, allocation probe —
# are deterministic in the seeds, so CI regenerates the artifact with the
# committed parameters and diffs the counts exactly (wall clock and derived
# rates are stripped from both sides; the binary itself exits non-zero if
# the steady state allocates).
hotpath_bench() {
  ./build-release/bench/hotpath \
    --out="${ARTIFACTS}/BENCH_hotpath.json" &&
    python3 tools/strip_bench_timings.py BENCH_hotpath.json \
      > "${ARTIFACTS}/BENCH_hotpath.committed.json" &&
    python3 tools/strip_bench_timings.py "${ARTIFACTS}/BENCH_hotpath.json" \
      > "${ARTIFACTS}/BENCH_hotpath.fresh.json" &&
    diff -u "${ARTIFACTS}/BENCH_hotpath.committed.json" \
      "${ARTIFACTS}/BENCH_hotpath.fresh.json"
}
run_step "hotpath-bench (release)" blocking hotpath_bench

# The committed tier-2 scale curve must match what the code produces: the
# event count of every grid is deterministic, so CI regenerates
# BENCH_scale.json and diffs it with timings and RSS stripped.
scale_bench() {
  ./build-release/bench/scalability \
    --scale-out="${ARTIFACTS}/BENCH_scale.json" &&
    python3 tools/strip_bench_timings.py BENCH_scale.json \
      > "${ARTIFACTS}/BENCH_scale.committed.json" &&
    python3 tools/strip_bench_timings.py "${ARTIFACTS}/BENCH_scale.json" \
      > "${ARTIFACTS}/BENCH_scale.fresh.json" &&
    diff -u "${ARTIFACTS}/BENCH_scale.committed.json" \
      "${ARTIFACTS}/BENCH_scale.fresh.json"
}
run_step "scale-curve (release)" blocking scale_bench

# The benchmark's own fidelity test: its replay of every workload must
# match RunExperiment on events_executed and the run fingerprint, and the
# answer oracle must catch its mutations.  It builds perfbench (Release)
# into .bench_build/.
perfbench_fidelity() {
  python3 perfbench/run.py --test
}
run_step "perfbench-fidelity (release)" blocking perfbench_fidelity

# Answers at full size: --test above checks answer values only at reduced
# sizes, so run every workload once at its default seed.  run.py exits
# non-zero on a wrong answer or a run that does not repeat.
perfbench_oracle() {
  local workload
  for workload in paper_sweep tier2_grid query_churn lossy_arq; do
    python3 perfbench/run.py --workload "${workload}" --seconds 0.1 \
      --trace 0 || return 1
  done
}
run_step "perfbench-oracle (release)" blocking perfbench_oracle

obs_overhead_gate() {
  ./build-release/bench/obs_overhead --max-overhead=3 \
    --window-ms=10000 --reps=3 --out=/tmp/ttmqo_obs_ci.json
}
run_step "obs-overhead (release)" blocking obs_overhead_gate

# ---------------------------------------------------------------------------
# Matrix leg 4: ThreadSanitizer — BLOCKING.  The parallel sweep pool, fig4's
# parallel replay tasks (each with a private CostModel) and the metrics
# registry the sweep workers export into are the cross-thread surfaces;
# their drivers run under TSan and any reported race fails CI.  A canary compile
# distinguishes "toolchain cannot TSan" (SKIP) from "the code races"
# (FAIL), so the gate can never silently rot into report-only.

tsan_canary() {
  local probe
  probe="$(mktemp -d)"
  cat > "${probe}/t.cc" <<'EOF'
#include <thread>
int x;
int main() { std::thread t([] { x = 1; }); t.join(); return x - 1; }
EOF
  local cxx="${CXX:-$(command -v c++ || command -v g++ || echo c++)}"
  "${cxx}" -fsanitize=thread -O1 "${probe}/t.cc" -o "${probe}/t" \
    >/dev/null 2>&1 && "${probe}/t" >/dev/null 2>&1
  local rc=$?
  rm -rf "${probe}"
  return "${rc}"
}

tsan_run() {
  mkdir -p "${ARTIFACTS}/tsan"
  ./build-tsan/tests/sweep_determinism_test 2>&1 |
    tee "${ARTIFACTS}/tsan/sweep_determinism_test.log" &&
    ./build-tsan/bench/fig4_adaptive --part=a --queries=120 --jobs=4 2>&1 |
      tee "${ARTIFACTS}/tsan/fig4_adaptive.log" &&
    ./build-tsan/examples/run_sweep \
      --spec="grids=4 workloads=C modes=baseline,ttmqo seeds=4 duration-ms=36864" \
      --jobs=4 --no-timing --out=/dev/null \
      --metrics-out="${ARTIFACTS}/tsan/run_sweep_metrics.json" 2>&1 |
      tee "${ARTIFACTS}/tsan/run_sweep.log"
}

if tsan_canary; then
  run_step "build-tsan (werror)" blocking \
    configure_and_build build-tsan -DENABLE_TSAN=ON -DENABLE_WERROR=ON \
    -- sweep_determinism_test fig4_adaptive run_sweep
  run_step "tsan: sweep pool + fig4" blocking tsan_run
else
  skip_step "tsan" "toolchain/kernel cannot run ThreadSanitizer"
fi
