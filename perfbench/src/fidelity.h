// The fidelity check: the benchmark's sequence of public calls must behave
// exactly like `RunExperiment`.  If the runner changes, the benchmark fails
// loudly instead of silently measuring something else.
#pragma once

#include <optional>
#include <string>

#include "workloads.h"

namespace perfbench {

/// Runs `spec` through `RunExperiment` and through `RunPublic` + the
/// oracle's delivery accounting.  Returns a description of the first
/// difference in `events_executed` or `FingerprintRun(results, summary)`,
/// or nullopt when both agree.
std::optional<std::string> CompareWithRunExperiment(const RunSpec& spec);

}  // namespace perfbench
