// JSON Lines trace writer.
//
// `JsonlTraceWriter` is the sink a run's `Network` forwards its trace to:
// radio events (tx/drop/linkdrop/sleep/wake/fail/down/recover), fault
// events, tier-1/tier-2 decisions and run brackets, one JSON object per
// line — suitable for offline visualization or debugging of an
// experiment's message flow.  All string fields are JSON-escaped and the
// stream is flushed on destruction, so the output is always parseable
// line-by-line.
#pragma once

#include <cstdint>
#include <ostream>

#include "util/tracing.h"

namespace ttmqo {

/// Streams trace events as JSON Lines.
class JsonlTraceWriter final : public TraceSink {
 public:
  /// `out` must outlive the writer.  Nothing is buffered beyond the
  /// stream's own buffering.
  explicit JsonlTraceWriter(std::ostream& out) : out_(&out) {}

  /// Flushes the stream so a truncated process still leaves parseable JSONL.
  ~JsonlTraceWriter() override;

  JsonlTraceWriter(const JsonlTraceWriter&) = delete;
  JsonlTraceWriter& operator=(const JsonlTraceWriter&) = delete;

  void Emit(const TraceEvent& event) override;

  /// Explicitly flushes the underlying stream.
  void Flush();

  /// Number of events written so far.
  std::uint64_t events() const { return events_; }

 private:
  std::ostream* out_;
  std::uint64_t events_ = 0;
};

}  // namespace ttmqo
