// The TTMQO benchmark.
//
//   ttmqo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out <result.json>]
//
// Generates the workload's runs from the seed, proves on a reduced size
// that the benchmark's public-call sequence matches `RunExperiment`, then
// runs the workload in a closed loop — one process, one thread, each run
// starting when the previous one ends — for the given seconds, completing
// at least one full pass.  Every run of the first pass goes through the
// answer-value oracle; every later run must reproduce the first pass's
// fingerprint.
//
// --trace 0 measures with spans off and reports the end-to-end metrics.
// --trace 1 alternates an untraced and a traced execution of each run; the
// traced one turns spans on and yields the per-layer metrics, and the pair
// gives the tracing overhead.  End-to-end numbers never come from a traced
// execution.
//
// Output: a readable report, then one JSON line with `correct`,
// `attempted`, `failed` and every metric computed.  `--out` also writes the
// result, stamped with the build info, for `compare.py`.
//
// Exit codes: 0 correct; 1 wrong answers or a run that did not repeat;
// 2 bad arguments; 3 fidelity mismatch.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "calibration.h"
#include "fidelity.h"
#include "layers.h"
#include "obs/build_info.h"
#include "obs/span.h"
#include "oracle.h"
#include "public_run.h"
#include "sweep/fingerprint.h"
#include "util/tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ttmqo::obs::NowNs;

/// The calibration kernel's time on the host the nominal seconds refer to:
/// roughly its time on an idle 2.0 GHz Xeon vCPU.  A unit, not a baseline:
/// both sides of any comparison use the same value.
constexpr double kNominalKernelNs = 40e6;

/// Every this often, between runs, the calibration kernel runs once and
/// every run of the workload is set up once more without running, so
/// `setup_s` has many samples spread over the measurement.
constexpr std::uint64_t kCalibrationPeriodNs = 500'000'000;

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: %s needs a value\n", key.c_str());
      return std::nullopt;
    }
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        args.trace = value == "1";
      } else if (key == "--out") {
        args.out = value;
      } else {
        std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "perfbench: bad value '%s' for %s\n",
                   value.c_str(), key.c_str());
      return std::nullopt;
    }
  }
  if (!IsWorkload(args.workload) || !args.seed.has_value() ||
      !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: ttmqo_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <file>]\n"
                 "workloads:");
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return std::nullopt;
  }
  return args;
}

/// Shortest decimal that round-trips, so no measured digit is lost.
std::string Num(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host times are summarized by their lower quartile: interference from
/// other work on the host only ever adds time, so the low end of a run's
/// samples is its most repeatable measure.
constexpr double kTimeQuantile = 0.25;

/// Sum over runs of each run's lower-quartile sample.
double SumOfLowerQuartiles(const std::vector<std::vector<double>>& per_run) {
  double total = 0.0;
  for (const auto& samples : per_run) {
    total += Quantile(samples, kTimeQuantile);
  }
  return total;
}

/// Everything the closed loop observed.
struct Observed {
  explicit Observed(std::size_t n)
      : run_ns(n), run_at(n), setup_ns(n), setup_at(n), traced_run_ns(n),
        fingerprints(n), avg_tx_pct(n), layers(n) {}

  /// Per run: host time of each untraced execution and of each set-up,
  /// and when each ended.
  std::vector<std::vector<double>> run_ns;
  std::vector<std::vector<std::uint64_t>> run_at;
  std::vector<std::vector<double>> setup_ns;
  std::vector<std::vector<std::uint64_t>> setup_at;
  std::vector<std::vector<double>> traced_run_ns;
  std::vector<std::string> fingerprints;
  std::vector<double> avg_tx_pct;
  /// The calibration kernel's host times, and when each was taken.
  std::vector<double> calibration_ns;
  std::vector<std::uint64_t> calibration_at;
  OracleTally oracle;
  LayerTally layers;
  std::uint64_t executions = 0;
  std::uint64_t mismatches = 0;
};

/// Checks one execution of run `k`: the first is checked by the oracle and
/// fixes the fingerprint; every later one must reproduce it.
void Verify(const RunSpec& spec, std::size_t k, bool first, PublicRun& run,
            Observed& seen) {
  const std::string fingerprint =
      ttmqo::FingerprintRun(run.results, run.summary);
  if (!first) {
    if (fingerprint != seen.fingerprints[k]) {
      ++seen.mismatches;
      std::fprintf(stderr, "perfbench: %s did not repeat its first pass\n",
                   spec.label.c_str());
    }
    return;
  }
  seen.fingerprints[k] = fingerprint;
  seen.oracle.Add(CheckAnswers(spec, run));
  seen.avg_tx_pct[k] = run.summary.avg_transmission_fraction * 100.0;
}

Observed Measure(const std::vector<RunSpec>& runs, const Args& args) {
  const std::size_t n = runs.size();
  Observed seen(n);
  const auto budget_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline = start + budget_ns;
  TimeCalibrationKernel();  // warm-up: builds the kernel's table
  std::uint64_t last_calibration = 0;
  for (std::size_t i = 0; i < n || NowNs() < deadline; ++i) {
    const std::size_t k = i % n;
    const bool first = i < n;
    if (NowNs() - last_calibration >= kCalibrationPeriodNs) {
      seen.calibration_ns.push_back(
          static_cast<double>(TimeCalibrationKernel()));
      last_calibration = NowNs();
      seen.calibration_at.push_back(last_calibration);
      for (std::size_t j = 0; j < n; ++j) {
        seen.setup_ns[j].push_back(static_cast<double>(SetupOnly(runs[j])));
        seen.setup_at[j].push_back(NowNs());
      }
    }
    {
      PublicRun run = RunPublic(runs[k]);
      seen.run_ns[k].push_back(static_cast<double>(run.times.TotalNs()));
      seen.run_at[k].push_back(NowNs());
      seen.setup_ns[k].push_back(static_cast<double>(run.times.setup_ns));
      seen.setup_at[k].push_back(seen.run_at[k].back());
      Verify(runs[k], k, first, run, seen);
      ++seen.executions;
    }
    if (args.trace) {
      ttmqo::obs::ResetSpans();
      ttmqo::obs::SetSpansEnabled(true);
      CallSamples calls;
      PublicRun run = RunPublic(runs[k], &calls);
      ttmqo::obs::SetSpansEnabled(false);
      seen.layers.AddTracedRun(k, run.counters, ttmqo::obs::CollectSpans(),
                               calls);
      seen.traced_run_ns[k].push_back(
          static_cast<double>(run.times.TotalNs()));
      Verify(runs[k], k, /*first=*/false, run, seen);
      ++seen.executions;
    }
  }
  return seen;
}

/// The calibration kernel's time around `t`: the mean of the samples just
/// before and just after it.
double CalibrationAround(const Observed& seen, std::uint64_t t) {
  const auto& at = seen.calibration_at;
  const auto i = static_cast<std::size_t>(
      std::lower_bound(at.begin(), at.end(), t) - at.begin());
  if (i == 0) return seen.calibration_ns.front();
  if (i == at.size()) return seen.calibration_ns.back();
  return 0.5 * (seen.calibration_ns[i - 1] + seen.calibration_ns[i]);
}

/// Host time at nominal speed: each sample is divided by the calibration
/// kernel's time around it, so the host's speed at that moment cancels, and
/// scaled to a host where the kernel takes `kNominalKernelNs`.  Per run the
/// lower quartile is kept; the runs are summed.  Seconds.
double NominalSeconds(const Observed& seen,
                      const std::vector<std::vector<double>>& samples,
                      const std::vector<std::vector<std::uint64_t>>& at) {
  double total = 0.0;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    std::vector<double> ratios;
    for (std::size_t j = 0; j < samples[k].size(); ++j) {
      ratios.push_back(samples[k][j] / CalibrationAround(seen, at[k][j]));
    }
    total += Quantile(ratios, kTimeQuantile);
  }
  return total * kNominalKernelNs / 1e9;
}

/// Mean over cells of ttmqo's savings against the baseline, for workloads
/// that run both modes in the same cell.
std::optional<double> SavingsPct(const std::vector<RunSpec>& runs,
                                 const std::vector<double>& avg_tx_pct) {
  std::map<std::string, std::optional<double>> baseline;
  std::map<std::string, std::optional<double>> ttmqo;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    if (runs[k].config.mode == ttmqo::OptimizationMode::kBaseline) {
      baseline[runs[k].cell] = avg_tx_pct[k];
    } else if (runs[k].config.mode == ttmqo::OptimizationMode::kTwoTier) {
      ttmqo[runs[k].cell] = avg_tx_pct[k];
    }
  }
  double sum = 0.0;
  int count = 0;
  for (const auto& [cell, tx] : ttmqo) {
    if (!baseline[cell].has_value()) continue;
    sum += ttmqo::SavingsPercent(*baseline[cell], *tx);
    ++count;
  }
  if (count == 0) return std::nullopt;
  return sum / count;
}

std::vector<Metric> EndToEnd(const std::vector<RunSpec>& runs,
                             const Observed& seen) {
  std::vector<double> all_runs;
  for (const auto& samples : seen.run_ns) {
    all_runs.insert(all_runs.end(), samples.begin(), samples.end());
  }
  std::vector<double> first_answer(seen.oracle.first_answer_ms.begin(),
                                   seen.oracle.first_answer_ms.end());
  double avg_tx = 0.0;
  for (const double tx : seen.avg_tx_pct) avg_tx += tx;
  avg_tx /= static_cast<double>(seen.avg_tx_pct.size());
  const double expected = static_cast<double>(seen.oracle.answers_expected);
  const double wall_ns = SumOfLowerQuartiles(seen.run_ns);
  const double calibration_ns = Quantile(seen.calibration_ns, kTimeQuantile);
  std::vector<Metric> metrics = {
      {"wall_s", "s", NominalSeconds(seen, seen.run_ns, seen.run_at)},
      {"setup_s", "s", NominalSeconds(seen, seen.setup_ns, seen.setup_at)},
      {"wall_host_s", "s", wall_ns / 1e9},
      {"setup_host_s", "s", SumOfLowerQuartiles(seen.setup_ns) / 1e9},
      {"calibration_ms", "ms", calibration_ns / 1e6},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"run_ms_p50", "ms", Quantile(all_runs, 0.50) / 1e6},
      {"run_ms_p90", "ms", Quantile(all_runs, 0.90) / 1e6},
      {"avg_tx_pct", "%", avg_tx},
      {"delivery_pct", "%",
       expected > 0.0
           ? 100.0 * static_cast<double>(seen.oracle.answers_delivered) /
                 expected
           : 100.0},
      {"wrong_answers", "count", static_cast<double>(seen.oracle.wrong)},
      {"first_answer_ms_p50", "ms", Quantile(first_answer, 0.50)},
      {"first_answer_ms_p90", "ms", Quantile(first_answer, 0.90)},
  };
  if (const auto savings = SavingsPct(runs, seen.avg_tx_pct)) {
    metrics.push_back({"savings_pct", "%", *savings});
  }
  return metrics;
}

void WriteMetricsJson(std::ostream& out, const std::vector<Metric>& metrics) {
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    ttmqo::WriteJsonString(out, metrics[i].name);
    out << ": {\"value\": " << Num(metrics[i].value) << ", \"unit\": ";
    ttmqo::WriteJsonString(out, metrics[i].unit);
    out << "}";
  }
  out << "}";
}

int Main(int argc, char** argv) {
  const std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.has_value()) return 2;
  const Args& args = *parsed;
  ttmqo::obs::SetSpansEnabled(false);

  const std::uint64_t gen_start = NowNs();
  const std::vector<RunSpec> runs = MakeRuns(args.workload, *args.seed, false);
  const double gen_s = static_cast<double>(NowNs() - gen_start) / 1e9;

  for (const RunSpec& spec : MakeRuns(args.workload, *args.seed, true)) {
    if (const auto diff = CompareWithRunExperiment(spec)) {
      std::fprintf(stderr, "perfbench: fidelity mismatch: %s\n",
                   diff->c_str());
      return 3;
    }
  }
  ttmqo::obs::SetSpansEnabled(false);
  ttmqo::obs::ResetSpans();

  Observed seen = Measure(runs, args);
  seen.layers.SetGenerationSeconds(gen_s);
  std::vector<Metric> metrics = EndToEnd(runs, seen);
  std::vector<std::string> warnings;
  if (args.trace) {
    for (const Metric& m : seen.layers.Metrics()) metrics.push_back(m);
    const double untraced = SumOfLowerQuartiles(seen.run_ns);
    const double traced = SumOfLowerQuartiles(seen.traced_run_ns);
    metrics.push_back({"obs.trace_overhead_pct", "%",
                       untraced > 0.0 ? (traced / untraced - 1.0) * 100.0
                                      : 0.0});
    warnings = seen.layers.Warnings();
  }
  const OracleTally& oracle = seen.oracle;
  const bool correct = oracle.wrong == 0 && seen.mismatches == 0;

  std::cout << "workload " << args.workload << " seed " << *args.seed
            << ": " << runs.size() << " runs, " << seen.executions
            << " executions" << (args.trace ? " (half traced)" : "") << "\n";
  std::cout << "oracle: " << oracle.operations << " answers, "
            << oracle.rows_checked << " rows and "
            << oracle.aggregates_checked << " aggregates checked, "
            << oracle.partial_aggregates << " partial aggregates, "
            << oracle.wrong << " wrong\n";
  for (const std::string& example : oracle.examples) {
    std::cout << "  wrong: " << example << "\n";
  }
  for (const std::string& warning : warnings) {
    std::cout << "warning: " << warning << "\n";
    std::cerr << "perfbench: warning: " << warning << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit
              << "\n";
  }

  if (!args.out.empty()) {
    std::ofstream out(args.out);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot open %s\n", args.out.c_str());
      return 2;
    }
    out << "{\n  \"workload\": ";
    ttmqo::WriteJsonString(out, args.workload);
    out << ",\n  \"seed\": " << *args.seed << ",\n  \"seconds\": "
        << Num(args.seconds) << ",\n  \"trace\": " << (args.trace ? 1 : 0)
        << ",\n  \"runs\": " << runs.size() << ",\n  \"executions\": "
        << seen.executions << ",\n  \"correct\": "
        << (correct ? "true" : "false") << ",\n  \"build\": ";
    ttmqo::obs::WriteBuildInfoJson(out, 4);
    out << ",\n  \"warnings\": [";
    for (std::size_t i = 0; i < warnings.size(); ++i) {
      if (i > 0) out << ", ";
      ttmqo::WriteJsonString(out, warnings[i]);
    }
    out << "],\n  \"metrics\": ";
    WriteMetricsJson(out, metrics);
    out << "\n}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << oracle.operations
            << ", \"failed\": " << oracle.wrong << ", \"metrics\": ";
  WriteMetricsJson(std::cout, metrics);
  std::cout << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
