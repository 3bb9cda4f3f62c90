// The benchmark's four workloads, generated from a seed.
//
// Every workload is a list of independent runs, each a `RunConfig` plus a
// workload schedule: exactly the inputs `RunExperiment` takes, so the
// fidelity check can hand the same run to both paths.  The benchmark
// generates the inputs; the program only receives them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workload/runner.h"

namespace perfbench {

/// One simulation run of a workload.
struct RunSpec {
  ttmqo::RunConfig config;
  std::vector<ttmqo::WorkloadEvent> schedule;
  /// Short description for diagnostics ("grid=4 workload=A mode=ttmqo").
  std::string label;
  /// The label without the mode: runs of one cell differ only in mode,
  /// which is what `savings_pct` compares.
  std::string cell;
};

/// Names of the workloads, in their canonical order.
const std::vector<std::string>& WorkloadNames();

/// True when `name` is one of `WorkloadNames()`.
bool IsWorkload(std::string_view name);

/// The runs of workload `name` under `seed`.  `reduced` gives the small
/// version the fidelity check runs through both the benchmark's calls and
/// `RunExperiment`; otherwise the measured size.  Deterministic in
/// (name, seed, reduced).
std::vector<RunSpec> MakeRuns(std::string_view name, std::uint64_t seed,
                              bool reduced);

}  // namespace perfbench
