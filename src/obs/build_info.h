// Build and host provenance, stamped into benchmark artifacts and sweep
// reports so a committed BENCH_*.json records *what* was measured *where*
// (the original BENCH_sweep.json was silently measured on a 1-core box —
// the blind spot this closes).
#pragma once

#include <ostream>
#include <string>

namespace ttmqo::obs {

struct BuildInfo {
  std::string git_sha;     ///< configure-time `git rev-parse HEAD` (or "unknown")
  std::string compiler;    ///< compiler id + version
  std::string build_type;  ///< CMake build type (Release, Debug, ...)
  std::string flags;       ///< CMAKE_CXX_FLAGS + per-config flags
  std::string hostname;    ///< runtime hostname
  unsigned hardware_concurrency = 0;  ///< runtime std::thread value
};

/// The process's build info (host fields sampled once on first call).
const BuildInfo& GetBuildInfo();

/// Writes build info as a JSON object (no trailing newline), each field on
/// its own line indented by `indent` spaces, the braces by `indent - 2`.
/// For embedding as a `"build": {...}` block in bench artifacts.
void WriteBuildInfoJson(std::ostream& out, int indent = 4);

/// Prints a loud warning to `err` when the machine reports a single
/// hardware thread — parallel speedup numbers measured here are meaningless.
/// Returns true when the warning fired.
bool WarnIfSingleCore(std::ostream& err);

}  // namespace ttmqo::obs
