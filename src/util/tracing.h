// Structured tracing.
//
// A `TraceEvent` is a timestamped, named bag of typed fields; a `TraceSink`
// consumes them.  Every layer of a run emits through one sink, the run's
// `Network`: the radio ("tx", "drop", "linkdrop", "sleep"/"wake",
// "fail"/"down"/"recover"), the fault plan ("fault.*"), the tier-2 engine
// ("tier2.*"), the TTMQO engine ("engine.*"), the tier-1 optimizer
// ("tier1.insert", "tier1.terminate", ...) and the runner's
// "run.start"/"run.end" brackets.  The network stamps each event with the
// simulation time and forwards it to the sink installed on it —
// `JsonlTraceWriter` in metrics writes one JSON line per event, so a
// decision sits beside the radio events it caused.
//
// Tracing is opt-in: emitters check for a sink before building an event,
// so an untraced run builds none.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/time.h"

namespace ttmqo {

/// One typed field value of a trace event (the integer list holds node
/// ids, e.g. a transmission's destinations).
using TraceValue = std::variant<std::int64_t, double, bool, std::string,
                                std::vector<std::int64_t>>;

/// A structured, timestamped event.
struct TraceEvent {
  /// Simulation time of the event (stamped by the network).
  SimTime time = 0;
  /// Dotted event kind, e.g. "tier1.insert".
  std::string kind;
  /// Ordered key/value fields.
  std::vector<std::pair<std::string, TraceValue>> fields;

  TraceEvent() = default;
  explicit TraceEvent(std::string k) : kind(std::move(k)) {}

  /// Appends a field (chainable).  The value is built in place: moving a
  /// list-holding `TraceValue` trips GCC 12's -Wmaybe-uninitialized.
  template <typename V>
  TraceEvent& With(std::string key, V&& value) {
    fields.emplace_back(std::move(key), std::forward<V>(value));
    return *this;
  }
};

/// Consumes trace events.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const TraceEvent& event) = 0;
};

/// A sink that stores the newest `capacity` events, oldest first (every
/// event by default); for tests, and for the tail of a run that a failure
/// dumps in the `--trace-out` line format.
class CollectingTraceSink final : public TraceSink {
 public:
  explicit CollectingTraceSink(
      std::size_t capacity = std::numeric_limits<std::size_t>::max())
      : capacity_(capacity) {}

  void Emit(const TraceEvent& event) override {
    events_.push_back(event);
    if (events_.size() > capacity_) events_.pop_front();
  }

  const std::deque<TraceEvent>& events() const { return events_; }

  /// Number of collected events with the given kind.
  std::size_t CountKind(std::string_view kind) const;

  void Clear() { events_.clear(); }

 private:
  std::size_t capacity_;
  std::deque<TraceEvent> events_;
};

/// Appends `raw` to `out` with JSON string escaping applied (quotes,
/// backslashes, control characters); does not write surrounding quotes.
void JsonEscape(std::string_view raw, std::string& out);

/// Writes `raw` as a quoted, escaped JSON string.
void WriteJsonString(std::ostream& out, std::string_view raw);

/// Writes one `TraceValue` as a JSON scalar, or an integer list as an
/// array.
void WriteJsonValue(std::ostream& out, const TraceValue& value);

/// Writes `event` as one JSON object: {"event":kind,"t":time,fields...}.
/// No trailing newline.
void WriteTraceEventJson(std::ostream& out, const TraceEvent& event);

}  // namespace ttmqo
