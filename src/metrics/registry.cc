#include "metrics/registry.h"

#include <algorithm>
#include <stdexcept>

#include "util/tracing.h"

namespace ttmqo {
namespace {

// std::atomic<double>::fetch_add is C++20 but not universally lock-free;
// a CAS loop is portable and contention here is negligible.
void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Counter::Add(double delta) {
  if (delta <= 0.0) return;
  AtomicAdd(value_, delta);
}

void Gauge::Add(double delta) { AtomicAdd(value_, delta); }

std::string MetricsRegistry::InstrumentKey(const std::string& name,
                                           const MetricLabels& labels) {
  if (labels.empty()) return name;
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += "=\"";
    // Escaping backslash, quote and newline keeps distinct label sets on
    // distinct keys: no value can spell a closing quote and a second
    // label.  WriteJson re-escapes the whole key with WriteJsonString, so
    // the document stays valid whatever bytes a value holds.
    for (const char c : sorted[i].second) {
      switch (c) {
        case '\\':
          key += "\\\\";
          break;
        case '"':
          key += "\\\"";
          break;
        case '\n':
          key += "\\n";
          break;
        default:
          key += c;
      }
    }
    key += '"';
  }
  key += '}';
  return key;
}

MetricsRegistry::Instrument& MetricsRegistry::GetOrCreate(
    const std::string& name, const MetricLabels& labels, Kind kind) {
  const std::string key = InstrumentKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = instruments_.find(key);
  if (it != instruments_.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument("MetricsRegistry: '" + key +
                                  "' already registered as a different type");
    }
    return it->second;
  }
  Instrument instrument;
  instrument.kind = kind;
  return instruments_.emplace(key, std::move(instrument)).first->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) {
  Instrument& instrument = GetOrCreate(name, labels, Kind::kCounter);
  if (instrument.counter == nullptr) {
    instrument.counter = std::make_unique<Counter>();
  }
  return *instrument.counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels) {
  Instrument& instrument = GetOrCreate(name, labels, Kind::kGauge);
  if (instrument.gauge == nullptr) instrument.gauge = std::make_unique<Gauge>();
  return *instrument.gauge;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instruments_.size();
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto write_section = [&](const char* title, Kind kind) {
    out << '"' << title << "\":{";
    bool first_entry = true;
    for (const auto& [key, instrument] : instruments_) {
      if (instrument.kind != kind) continue;
      if (!first_entry) out << ',';
      first_entry = false;
      WriteJsonString(out, key);
      out << ':';
      if (kind == Kind::kCounter) {
        out << instrument.counter->Value();
      } else {
        out << instrument.gauge->Value();
      }
    }
    out << '}';
  };
  out << '{';
  write_section("counters", Kind::kCounter);
  out << ',';
  write_section("gauges", Kind::kGauge);
  out << '}';
}

}  // namespace ttmqo
