#include "obs/session.h"

#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace ttmqo::obs {

ObsSession::Options ObsSession::FromFlags(const Flags& flags) {
  Options options;
  options.trace_chrome_path = flags.GetString("trace-chrome", "");
  options.postmortem_dir = flags.GetString("postmortem-dir", "");
  return options;
}

ObsSession::ObsSession(Options options) : options_(std::move(options)) {
  // Fail fast: an unwritable trace path should abort the run up front with
  // a normal error exit, not surface as a throw out of Finish() hours later
  // (or worse, out of the destructor, which would std::terminate).
  if (!options_.trace_chrome_path.empty()) {
    std::ofstream probe(options_.trace_chrome_path);
    if (!probe) {
      throw std::runtime_error("cannot open output file: " +
                               options_.trace_chrome_path);
    }
  }
  ResetSpans();
  ClearFlightRecords();
  if (!options_.postmortem_dir.empty()) {
    ArmPostmortem(options_.postmortem_dir);
  }
}

ObsSession::~ObsSession() {
  // A destructor must not throw; if the trace path became unwritable
  // mid-run (directory removed, disk full), report and carry on.
  try {
    Finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs: %s\n", e.what());
  }
}

void ObsSession::Finish() {
  if (finished_) return;
  finished_ = true;
  if (!options_.trace_chrome_path.empty()) {
    WriteChromeTraceFile(options_.trace_chrome_path);
    std::printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n",
                options_.trace_chrome_path.c_str());
  }
  DisarmFlightRecorder();
}

}  // namespace ttmqo::obs
