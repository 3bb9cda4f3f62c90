// A process-wide metrics registry: named counters and gauges with
// Prometheus-style labels, exported as one JSON document.
//
// Instruments are created on first use and live as long as the registry;
// the returned references stay valid across further registrations.  All
// operations are thread-safe: instrument lookup takes the registry mutex,
// and updates are atomic, so code holding a cached instrument reference
// never contends on the registry.  Sweep workers export into one registry
// concurrently.
//
// Metric names follow Prometheus conventions (snake_case, `_total` suffix
// on counters); labels keep cardinality bounded (node ids, message
// classes, run modes — never query ids of unbounded workloads).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ttmqo {

/// Label set of one instrument instance, e.g. {{"node","3"},{"class","result"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing value.
class Counter {
 public:
  /// Adds `delta` (must be >= 0; negative deltas are clamped to 0).
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A value that can go up and down.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// The registry.  Instruments are identified by (name, labels); requesting
/// the same identity twice returns the same instrument.  Registering one
/// name as two different instrument types throws `std::invalid_argument`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name, const MetricLabels& labels = {});
  Gauge& GetGauge(const std::string& name, const MetricLabels& labels = {});

  /// Number of registered instrument instances.
  std::size_t size() const;

  /// JSON object: {"counters":{"name{k=\"v\"}":value,...},
  /// "gauges":{...}}.  Keys are sorted; the document is self-contained and
  /// parseable.
  void WriteJson(std::ostream& out) const;

 private:
  enum class Kind { kCounter, kGauge };

  struct Instrument {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
  };

  /// "name{k=\"v\",...}" (or just "name" without labels); label order is
  /// normalized by sorting keys so identical sets always collide, and
  /// values escape `\\`, `"` and newline so distinct sets never do.
  static std::string InstrumentKey(const std::string& name,
                                   const MetricLabels& labels);

  Instrument& GetOrCreate(const std::string& name, const MetricLabels& labels,
                          Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Instrument> instruments_;
};

}  // namespace ttmqo
