// Binary-level observability wiring.
//
// `ObsSession` is the one object a `main` needs for profiling: construct it
// from the shared `--trace-chrome=FILE` flag, run the experiment, and let
// the destructor (or an explicit `Finish`) export the Chrome trace.
// Keeping the lifecycle in one RAII object is what guarantees that the
// span buffers are exported on normal exit.
#pragma once

#include <string>

#include "util/flags.h"

namespace ttmqo::obs {

class ObsSession {
 public:
  struct Options {
    /// Write a Perfetto-loadable Chrome trace here on Finish (empty: off).
    std::string trace_chrome_path;
  };

  /// Reads `--trace-chrome`.
  static Options FromFlags(const Flags& flags);

  /// Starts fresh: clears span state left by earlier in-process runs.
  explicit ObsSession(Options options);

  /// Finishes the session (idempotent).
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Writes the Chrome trace (when configured).  Safe to call twice.
  void Finish();

 private:
  Options options_;
  bool finished_ = false;
};

}  // namespace ttmqo::obs
