#include "fidelity.h"

#include <sstream>

#include "oracle.h"
#include "public_run.h"
#include "sweep/fingerprint.h"

namespace perfbench {
namespace {

/// The first line where two fingerprints differ, for the error message.
std::string FirstDifference(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string line_a;
  std::string line_b;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(a, line_a));
    const bool more_b = static_cast<bool>(std::getline(b, line_b));
    if (!more_a && !more_b) return "fingerprints differ";
    if (!more_a) line_a = "<end>";
    if (!more_b) line_b = "<end>";
    if (line_a != line_b) {
      return "RunExperiment '" + line_a + "' vs benchmark '" + line_b + "'";
    }
  }
}

}  // namespace

std::optional<std::string> CompareWithRunExperiment(const RunSpec& spec) {
  const ttmqo::RunResult reference =
      ttmqo::RunExperiment(spec.config, spec.schedule);
  PublicRun run = RunPublic(spec);
  CheckAnswers(spec, run);
  if (run.counters.events != reference.events_executed) {
    return spec.label + ": events_executed " +
           std::to_string(reference.events_executed) + " (RunExperiment) vs " +
           std::to_string(run.counters.events) + " (benchmark)";
  }
  const std::string want =
      ttmqo::FingerprintRun(reference.results, reference.summary);
  const std::string got = ttmqo::FingerprintRun(run.results, run.summary);
  if (want != got) return spec.label + ": " + FirstDifference(want, got);
  return std::nullopt;
}

}  // namespace perfbench
