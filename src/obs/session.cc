#include "obs/session.h"

#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "obs/chrome_trace.h"
#include "obs/span.h"

namespace ttmqo::obs {

ObsSession::Options ObsSession::FromFlags(const Flags& flags) {
  Options options;
  options.trace_chrome_path = flags.GetString("trace-chrome", "");
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
    const SpanSnapshot snapshot = CollectSpans();
    WriteChromeTraceFile(options_.trace_chrome_path, snapshot);
    std::printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n",
                options_.trace_chrome_path.c_str());
    if (snapshot.ring_dropped > 0 || snapshot.archive_dropped > 0) {
      std::printf(
          "the trace lacks %llu span records overwritten in thread rings "
          "and %llu dropped from the archive of exited threads\n",
          static_cast<unsigned long long>(snapshot.ring_dropped),
          static_cast<unsigned long long>(snapshot.archive_dropped));
    }
  }
}

}  // namespace ttmqo::obs
