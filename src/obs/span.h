// Always-on profiling spans.
//
// A span measures the wall time of a scope and records it into a
// thread-local, fixed-capacity ring buffer — no allocation, no locking, and
// a few nanoseconds per span, so instrumentation can stay in the hot paths
// permanently.  Spans nest (RAII), carry a depth so exports can rebuild the
// call structure, and optionally sample thread CPU time for coarse "phase"
// spans (parse, optimize, event loop, summarize).
//
// Usage:
//
//   void Simulator::Step() {
//     TTMQO_SPAN_SAMPLED("sim.event", 8);   // times 1 of every 256 events
//     ...
//   }
//   RunResult RunExperiment(...) {
//     TTMQO_PHASE_SPAN("phase.event_loop"); // wall + thread-CPU time
//     ...
//   }
//
// Two layers of control:
//   - `SetSpansEnabled(false)` (runtime): spans collapse to one relaxed
//     atomic load and a branch.  Spans are enabled by default ("always on").
//   - `TTMQO_SPAN_SAMPLED(name, shift)`: times only 1 of every 2^shift
//     executions of the call site (a per-site thread-local tick counter);
//     skipped executions cost an increment and a mask test.  Aggregated
//     counts are scaled back up by the sampling rate.
//
// Per-thread state lives in a `ThreadSpanBuffer` registered with a global
// registry on first use; buffers of exited threads are parked on a free
// list and recycled by later threads (their records are archived first, so
// a sweep worker's spans survive the worker).  `CollectSpans` snapshots
// everything for export — see chrome_trace.h for the Perfetto-loadable
// rendering.  Snapshot reads of *live* foreign threads are racy by design
// (profiling data, torn records are tolerable); snapshot after joining
// workers for exact results.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ttmqo::obs {

/// Monotonic wall clock, nanoseconds since an arbitrary process-local epoch.
std::uint64_t NowNs();

/// CPU time consumed by the calling thread, in nanoseconds.
std::uint64_t ThreadCpuNs();

namespace span_internal {
extern std::atomic<bool> g_enabled;
}  // namespace span_internal

/// True when spans record (the default).  One relaxed load.
inline bool SpansEnabled() {
  return span_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Runtime kill switch; affects every thread.
void SetSpansEnabled(bool enabled);

/// One completed span, as stored in the per-thread ring.
struct SpanRecord {
  const char* name = nullptr;   ///< static string literal from the macro
  std::uint64_t start_ns = 0;   ///< NowNs() at entry
  std::uint64_t dur_ns = 0;     ///< wall duration
  std::uint64_t cpu_ns = 0;     ///< thread-CPU duration (phase spans; else 0)
  std::uint32_t depth = 0;      ///< nesting depth at entry (0 = top level)
  std::uint8_t sample_shift = 0;  ///< this record stands for 2^shift hits
  bool has_cpu = false;         ///< whether cpu_ns was measured
};

/// Aggregated statistics of one span name.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;      ///< estimated executions (sampled are scaled)
  std::uint64_t records = 0;    ///< actually timed executions
  std::uint64_t total_ns = 0;   ///< wall time over the timed executions
  std::uint64_t total_cpu_ns = 0;  ///< CPU time over records that carried it
  /// Wall time scaled up by the sampling rate — the estimate of the true
  /// total when the site is sampled (equal to total_ns at shift 0).
  std::uint64_t estimated_total_ns = 0;
};

/// Everything one thread recorded.
struct ThreadSpans {
  std::uint32_t tid = 0;        ///< registration index, stable per buffer use
  bool live = false;            ///< thread still running at snapshot time
  std::uint64_t dropped = 0;    ///< records overwritten by ring wrap-around
  std::vector<SpanRecord> records;  ///< oldest first
};

/// A point-in-time copy of every thread's spans plus merged per-name stats.
struct SpanSnapshot {
  std::vector<ThreadSpans> threads;
  std::vector<SpanStat> totals;  ///< merged by name, descending total_ns
};

/// Copies all span state (live threads, parked buffers, archived records of
/// recycled buffers).  Thread-safe; see the racy-read caveat above.
SpanSnapshot CollectSpans();

/// Discards all recorded spans and archived records (stats and rings of
/// every registered buffer).  The buffers themselves stay registered.
void ResetSpans();

/// RAII span.  Prefer the macros, which name the scope object for you.
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (SpansEnabled()) Begin(name, /*with_cpu=*/false);
  }
  SpanScope(const char* name, bool with_cpu) {
    if (SpansEnabled()) Begin(name, with_cpu);
  }
  ~SpanScope() {
    if (name_ != nullptr) End();
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void Begin(const char* name, bool with_cpu);
  void End();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t start_cpu_ns_ = 0;
  bool with_cpu_ = false;
};

/// RAII span that times 1 of every 2^shift constructions per call site.
class SampledSpanScope {
 public:
  SampledSpanScope(const char* name, unsigned shift, std::uint32_t& tick) {
    // Tick test first: skipped executions (the overwhelming majority) touch
    // only the site's thread-local counter, never the shared enabled flag.
    if ((tick++ & ((1u << shift) - 1u)) != 0u) return;  // skipped execution
    if (!SpansEnabled()) return;
    Begin(name, shift);
  }
  ~SampledSpanScope() {
    if (name_ != nullptr) End();
  }

  SampledSpanScope(const SampledSpanScope&) = delete;
  SampledSpanScope& operator=(const SampledSpanScope&) = delete;

 private:
  void Begin(const char* name, unsigned shift);
  void End();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint8_t shift_ = 0;
};

}  // namespace ttmqo::obs

#define TTMQO_OBS_CAT2(a, b) a##b
#define TTMQO_OBS_CAT(a, b) TTMQO_OBS_CAT2(a, b)

/// Times the enclosing scope under `name` (a string literal).
#define TTMQO_SPAN(name) \
  ::ttmqo::obs::SpanScope TTMQO_OBS_CAT(ttmqo_span_, __LINE__)(name)

/// A coarse phase span: wall time plus thread-CPU time.
#define TTMQO_PHASE_SPAN(name)                                  \
  ::ttmqo::obs::SpanScope TTMQO_OBS_CAT(ttmqo_span_, __LINE__)( \
      name, /*with_cpu=*/true)

/// Times 1 of every 2^shift executions of this call site; the rest cost a
/// counter increment.  For per-event hot paths.
#define TTMQO_SPAN_SAMPLED(name, shift)                                      \
  static thread_local std::uint32_t TTMQO_OBS_CAT(ttmqo_span_tick_,          \
                                                  __LINE__) = 0;             \
  ::ttmqo::obs::SampledSpanScope TTMQO_OBS_CAT(ttmqo_span_, __LINE__)(       \
      name, shift, TTMQO_OBS_CAT(ttmqo_span_tick_, __LINE__))
