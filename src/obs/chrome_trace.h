// Chrome trace-event export of span snapshots.
//
// Renders a `SpanSnapshot` as the Chrome trace-event JSON object format —
// `{"traceEvents": [...]}` — loadable in Perfetto (ui.perfetto.dev) or
// `chrome://tracing`.  Each span record becomes one complete ("X") event
// with microsecond timestamps; per-thread metadata ("M") events name the
// tracks.  Sampled records carry their sampling shift in `args` so a reader
// knows one slice stands for 2^shift executions.
#pragma once

#include <ostream>
#include <string>

#include "obs/span.h"

namespace ttmqo::obs {

/// Writes `snapshot` as a Chrome trace-event JSON object.
void WriteChromeTrace(std::ostream& out, const SpanSnapshot& snapshot);

/// Collects the current spans and writes them to `path`.  Throws
/// `std::invalid_argument` when the file cannot be opened.
void WriteChromeTraceFile(const std::string& path);

}  // namespace ttmqo::obs
