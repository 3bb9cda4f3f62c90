// Lightweight runtime checking.
//
// The simulator is deterministic, so invariant violations are programming
// errors; we fail fast with a descriptive exception rather than corrupting an
// experiment silently.  A check only throws: the events that led up to a
// failure are the run's own trace (`--trace-out`, or the soak's tail dump),
// which ends at the failing event as the exception unwinds the run.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ttmqo {

/// Raised when a `Check`/`CheckArg` invariant is violated.
class CheckFailure : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Verifies an internal invariant; throws `CheckFailure` with the call site
/// location when `condition` is false.
inline void Check(bool condition, std::string_view message,
                  std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw CheckFailure(std::string(loc.file_name()) + ":" +
                       std::to_string(loc.line()) +
                       ": check failed: " + std::string(message));
  }
}

/// Verifies a precondition on a public API argument; throws
/// `std::invalid_argument` when `condition` is false.
inline void CheckArg(bool condition, std::string_view message) {
  if (!condition) {
    throw std::invalid_argument(std::string(message));
  }
}

}  // namespace ttmqo
