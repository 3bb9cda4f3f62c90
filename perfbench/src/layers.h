// Per-layer metrics of the traced run.
//
// Each traced execution of a run contributes the spans it recorded (the
// benchmark's own "bench.*" spans around every public call, plus the
// program's existing spans) and the counters its layers hold.  A layer's
// value is the sum over the workload's runs of the median over that run's
// traced executions; ratios are derived from those sums.
//
// Span arithmetic is taken against the benchmark's own loop span
// `bench.sim.loop`, never against the scaled `sim.event` estimate.  Sampled
// spans (`sim.event`, `net.complete_attempt`, `net.deliver`) are scaled up
// by their sampling rate; whenever a scaled child exceeds its parent the
// tally records a warning, and a residual that would go negative is
// clamped at zero.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.h"
#include "public_run.h"

namespace perfbench {

/// One named measurement.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

class LayerTally {
 public:
  explicit LayerTally(std::size_t num_runs) : per_run_(num_runs) {}

  /// Adds one traced execution of run `index`.
  void AddTracedRun(std::size_t index, const LayerCounters& counters,
                    const ttmqo::obs::SpanSnapshot& spans,
                    const CallSamples& calls);

  /// Host time of input generation, measured once per invocation.
  void SetGenerationSeconds(double seconds) { gen_s_ = seconds; }

  /// Every per-layer metric, in a fixed order.
  std::vector<Metric> Metrics() const;

  /// One line per kind of scaled-child-exceeds-parent event seen.
  std::vector<std::string> Warnings() const;

 private:
  struct Exceedance {
    std::uint64_t count = 0;
    double worst_ratio = 0.0;
  };

  void CheckNesting(const std::string& child, double child_ns,
                    const std::string& parent, double parent_ns);
  double Sum(const std::string& key) const;

  /// Per run: key -> one value per traced execution.
  std::vector<std::map<std::string, std::vector<double>>> per_run_;
  std::vector<double> submit_ns_;
  std::vector<double> terminate_ns_;
  std::uint64_t traced_runs_ = 0;
  double gen_s_ = 0.0;
  std::map<std::string, Exceedance> exceedances_;
};

/// The `q`-quantile (0..1) of `values` by linear interpolation; 0 when
/// empty.  Sorts a copy.
double Quantile(std::vector<double> values, double q);

/// The median of `values`; 0 when empty.
double Median(std::vector<double> values);

}  // namespace perfbench
