// Binary-level observability wiring.
//
// `ObsSession` is the one object a `main` needs: construct it from the
// shared `--trace-chrome=FILE` / `--postmortem-dir=DIR` flags, run the
// experiment, and let the destructor (or an explicit `Finish`) export the
// Chrome trace and disarm the flight recorder.  Keeping the lifecycle in
// one RAII object is what guarantees the satellite invariant that buffers
// are flushed and postmortem triggers detached on normal exit.
#pragma once

#include <string>

#include "util/flags.h"

namespace ttmqo::obs {

class ObsSession {
 public:
  struct Options {
    /// Write a Perfetto-loadable Chrome trace here on Finish (empty: off).
    std::string trace_chrome_path;
    /// Arm the flight recorder + postmortem dumps into this directory
    /// (empty: off).
    std::string postmortem_dir;
  };

  /// Reads `--trace-chrome` and `--postmortem-dir`.
  static Options FromFlags(const Flags& flags);

  /// Starts fresh: clears span and flight state left by earlier in-process
  /// runs, then arms per `options`.
  explicit ObsSession(Options options);

  /// Finishes the session (idempotent).
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Writes the Chrome trace (when configured) and disarms the flight
  /// recorder.  Safe to call twice.
  void Finish();

 private:
  Options options_;
  bool finished_ = false;
};

}  // namespace ttmqo::obs
