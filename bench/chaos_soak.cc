// Chaos soak harness (robustness extension; the paper defers failures to
// future work, Section 5).  Draws a seed-deterministic random fault plan —
// transient outages on up to --down-frac of the sensors plus optional
// uniform link loss — and runs the TinyDB baseline plus the two-tier
// scheme under both reliability profiles (off / arq) under the *same*
// plan, checking reliability invariants on every run:
//
//   1. no duplicate rows: the base station never reports one node twice in
//      one (query, epoch) answer;
//   2. accounting conservation: per-class message counts (including the
//      ARQ/repair control class) sum to the total and every scheduled
//      outage both begins and recovers;
//   3. completeness floors: the arq profile delivers at least --floor of
//      the oracle-expected rows in every query despite the chaos, and
//      averages at least --arq-floor;
//   4. coverage annotation: the arq profile stamps a coverage fraction on
//      every epoch result (a non-full epoch must never pass silently);
//   5. no spurious link drops when no loss was injected.
//
// Exits non-zero on the first violated invariant, so the soak can gate CI.
//
// Usage: chaos_soak [--side=6] [--seed=7] [--runs=3] [--epochs=24]
//                   [--outages=6] [--down-frac=0.2] [--link-loss=0.0]
//                   [--floor=0.5] [--arq-floor=0.99]
//                   [--postmortem-dir=DIR]
//                   [--bench-out=BENCH_reliability.json]
//
// With --bench-out the soak instead sweeps a link-loss axis across the
// two profiles (single seed, same outage plan) and writes the delivery-
// completeness / coverage / message-overhead matrix as a deterministic
// JSON artifact — the data behind the EXPERIMENTS.md reliability figure —
// stamped with the BuildInfo block the other bench artifacts carry (ci.sh
// strips it with tools/strip_bench_timings.py before diffing the counts).
//
// With --postmortem-dir every run is traced into a sink that keeps its
// newest kPostmortemEvents events.  A violated invariant, or an exception
// out of a run, replays that tail into one file in DIR named after the
// seed, the mode, the reliability profile and the reason — the same JSON
// Lines `run_experiment --trace-out` writes, ending at the run's run.end
// (or at its last event before the throw).  CI keeps DIR when the soak
// gate fails.
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/registry.h"
#include "metrics/table.h"
#include "metrics/trace.h"
#include "obs/build_info.h"
#include "obs/session.h"
#include "query/parser.h"
#include "util/flags.h"
#include "workload/runner.h"

namespace ttmqo {
namespace {

constexpr SimDuration kEpoch = 4096;

/// Events of a run's tail that a postmortem dump keeps.
constexpr std::size_t kPostmortemEvents = 256;

/// Rows reported twice for one node in one (query, epoch) answer.
std::size_t DuplicateRows(const ResultLog& log) {
  std::size_t duplicates = 0;
  for (const EpochResult* r : log.All()) {
    std::map<NodeId, int> seen;
    for (const Reading& row : r->rows) {
      if (++seen[row.node()] > 1) ++duplicates;
    }
  }
  return duplicates;
}

/// Epoch results the engine failed to stamp with a coverage fraction.
std::size_t UnannotatedEpochs(const ResultLog& log) {
  std::size_t unannotated = 0;
  for (const EpochResult* r : log.All()) {
    if (r->coverage < 0.0) ++unannotated;
  }
  return unannotated;
}

/// One soak run plus the fault counts its ledger exported at run end.
struct SoakOutcome {
  RunResult run;
  std::uint64_t outages = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t link_drops = 0;
};

struct Cell {
  OptimizationMode mode = OptimizationMode::kTwoTier;
  ReliabilityProfile reliability = ReliabilityProfile::kOff;
};

/// Writes `tail` as JSON Lines to
/// `<dir>/seed<seed>_<mode>_<profile>_<reason>.jsonl`, with every run of
/// characters other than letters and digits in `reason` turned into one
/// '_'; returns the path.
std::string WritePostmortem(const std::string& dir, std::uint64_t seed,
                            const Cell& cell, const std::string& reason,
                            const CollectingTraceSink& tail) {
  std::string name = "seed" + std::to_string(seed) + "_" +
                     std::string(OptimizationModeName(cell.mode)) + "_" +
                     std::string(ReliabilityProfileName(cell.reliability)) +
                     "_";
  for (const char c : reason.substr(0, 96)) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      name += c;
    } else if (name.back() != '_') {
      name += '_';
    }
  }
  if (name.back() == '_') name.pop_back();
  std::filesystem::create_directories(dir);
  const std::string path =
      (std::filesystem::path(dir) / (name + ".jsonl")).string();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open output file: " + path);
  JsonlTraceWriter writer(out);
  for (const TraceEvent& event : tail.events()) writer.Emit(event);
  return path;
}

SoakOutcome RunCell(const Cell& cell, std::size_t side, SimDuration duration,
                    std::uint64_t seed, const FaultPlan& plan,
                    const std::vector<WorkloadEvent>& schedule,
                    TraceSink* trace) {
  MetricsRegistry registry;
  RunConfig config;
  config.grid_side = side;
  config.mode = cell.mode;
  config.duration_ms = duration;
  config.seed = seed;
  config.faults = plan;
  config.reliability = cell.reliability;
  config.obs.registry = &registry;
  config.obs.trace = trace;
  SoakOutcome outcome;
  outcome.run = RunExperiment(config, schedule);
  const auto count = [&registry](const char* name,
                                 const MetricLabels& labels) {
    return static_cast<std::uint64_t>(
        registry.GetCounter(name, labels).Value());
  };
  outcome.outages = count("net_node_down_total", {});
  outcome.recoveries = count("net_node_recovered_total", {});
  for (NodeId node = 0; node < side * side; ++node) {
    outcome.link_drops +=
        count("net_link_drops_total", {{"node", std::to_string(node)}});
  }
  return outcome;
}

int WriteBenchArtifact(const std::string& path, std::size_t side,
                       SimDuration duration, std::uint64_t seed,
                       const RandomFaultParams& base_params,
                       const std::vector<WorkloadEvent>& schedule) {
  // The figure's axes: delivery completeness (and its cost in messages)
  // vs link loss, one curve per reliability profile, identical outage
  // plan and workload per loss level so profiles compare like-for-like.
  const double losses[] = {0.0, 0.05, 0.1, 0.2};
  const ReliabilityProfile profiles[] = {ReliabilityProfile::kOff,
                                         ReliabilityProfile::kArq};
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open bench output: %s\n", path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"reliability\",\n";
  out << "  \"build\": ";
  obs::WriteBuildInfoJson(out);
  out << ",\n";
  out << "  \"grid_side\": " << side << ",\n";
  out << "  \"duration_ms\": " << duration << ",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"cells\": [\n";
  char buf[512];
  bool first = true;
  for (const double loss : losses) {
    RandomFaultParams params = base_params;
    params.link_loss = loss;
    const FaultPlan plan =
        FaultPlan::RandomTransient(params, side * side, duration, seed);
    std::uint64_t off_messages = 0;
    for (const ReliabilityProfile profile : profiles) {
      const SoakOutcome outcome =
          RunCell({OptimizationMode::kTwoTier, profile}, side, duration, seed,
                  plan, schedule, /*trace=*/nullptr);
      const RunSummary& s = outcome.run.summary;
      if (profile == ReliabilityProfile::kOff) off_messages = s.total_messages;
      const double overhead =
          off_messages == 0 ? 1.0
                            : static_cast<double>(s.total_messages) /
                                  static_cast<double>(off_messages);
      std::snprintf(buf, sizeof(buf),
                    "%s    {\"link_loss\": %.2f, \"reliability\": \"%s\", "
                    "\"delivery_avg\": %.4f, \"delivery_min\": %.4f, "
                    "\"coverage_avg\": %.4f, \"messages\": %llu, "
                    "\"control_msgs\": %llu, \"overhead_x\": %.3f}",
                    first ? "" : ",\n", loss,
                    ReliabilityProfileName(profile).data(),
                    s.AvgDeliveryCompleteness(), s.MinDeliveryCompleteness(),
                    s.coverage.empty() ? -1.0 : s.AvgCoverage(),
                    static_cast<unsigned long long>(s.total_messages),
                    static_cast<unsigned long long>(s.control_messages),
                    overhead);
      out << buf;
      first = false;
      std::printf("bench: loss=%.2f %s delivery=%.1f%% messages=%llu\n",
                  loss, ReliabilityProfileName(profile).data(),
                  s.AvgDeliveryCompleteness() * 100,
                  static_cast<unsigned long long>(s.total_messages));
    }
  }
  out << "\n  ]\n}\n";
  std::printf("wrote reliability bench artifact to %s\n", path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::size_t side = PositiveCount(flags, "side", 6);
  const auto first_seed = static_cast<std::uint64_t>(flags.GetInt("seed", 7));
  const auto runs = static_cast<std::uint64_t>(flags.GetInt("runs", 3));
  const auto epochs = flags.GetInt("epochs", 24);
  RandomFaultParams params;
  params.max_outages = static_cast<std::size_t>(flags.GetInt("outages", 6));
  params.max_down_fraction = flags.GetDouble("down-frac", 0.2);
  params.link_loss = flags.GetDouble("link-loss", 0.0);
  const double floor = flags.GetDouble("floor", 0.5);
  const double arq_floor = flags.GetDouble("arq-floor", 0.99);
  const auto bench_out = flags.GetOptional("bench-out");
  const auto dump_dir = flags.GetOptional("postmortem-dir");
  obs::ObsSession obs_session(obs::ObsSession::FromFlags(flags));
  if (ReportUnreadFlags(flags)) return 2;

  const SimDuration duration = epochs * kEpoch;
  const auto schedule = StaticSchedule(
      {ParseQuery(1, "SELECT light WHERE light > 400 EPOCH DURATION 4096"),
       ParseQuery(2, "SELECT MAX(temp) EPOCH DURATION 8192")});

  if (bench_out.has_value()) {
    return WriteBenchArtifact(*bench_out, side, duration, first_seed, params,
                              schedule);
  }

  std::printf("Chaos soak: %zux%zu grid, %lld ms, <=%zu outages "
              "(<=%.0f%% of sensors), link loss %.2f, %llu seed(s)\n\n",
              side, side, static_cast<long long>(duration),
              params.max_outages, params.max_down_fraction * 100,
              params.link_loss, static_cast<unsigned long long>(runs));

  TablePrinter table({"seed", "outages", "mode", "rel", "completeness %",
                      "coverage %", "dup rows", "link drops", "messages"});
  int violations = 0;
  const Cell cells[] = {
      {OptimizationMode::kBaseline, ReliabilityProfile::kOff},
      {OptimizationMode::kTwoTier, ReliabilityProfile::kOff},
      {OptimizationMode::kTwoTier, ReliabilityProfile::kArq},
  };
  for (std::uint64_t seed = first_seed; seed < first_seed + runs; ++seed) {
    const FaultPlan plan =
        FaultPlan::RandomTransient(params, side * side, duration, seed);

    for (const Cell& cell : cells) {
      // The run's newest events, kept only to be dumped on a failure.
      CollectingTraceSink tail(kPostmortemEvents);
      const auto dump = [&](const std::string& reason) {
        if (!dump_dir.has_value()) return;
        const std::string path =
            WritePostmortem(*dump_dir, seed, cell, reason, tail);
        std::fprintf(stderr, "postmortem written to %s\n", path.c_str());
      };
      const SoakOutcome outcome = [&] {
        try {
          return RunCell(cell, side, duration, seed, plan, schedule,
                         dump_dir.has_value() ? &tail : nullptr);
        } catch (const std::exception& e) {
          dump(e.what());
          throw;
        }
      }();
      const auto violate = [&](const char* what) {
        std::fprintf(stderr, "INVARIANT VIOLATED (seed %llu): %s\n",
                     static_cast<unsigned long long>(seed), what);
        dump(what);
        ++violations;
      };
      const RunResult& run = outcome.run;
      const bool arq = cell.reliability == ReliabilityProfile::kArq;
      const std::size_t duplicates = DuplicateRows(run.results);
      if (duplicates > 0) violate("duplicate rows at the base station");
      const std::uint64_t by_class =
          run.summary.result_messages + run.summary.propagation_messages +
          run.summary.abort_messages + run.summary.maintenance_messages +
          run.summary.control_messages;
      if (by_class != run.summary.total_messages) {
        violate("per-class message counts do not sum to the total");
      }
      if (outcome.outages != plan.outages().size()) {
        violate("an outage never began");
      }
      if (outcome.recoveries != outcome.outages) {
        violate("an outage never recovered");
      }
      if (params.link_loss == 0.0 && outcome.link_drops != 0) {
        violate("link drops without injected loss");
      }
      if (arq) {
        if (run.summary.MinDeliveryCompleteness() < floor) {
          violate("arq completeness below the floor");
        }
        if (run.summary.AvgDeliveryCompleteness() < arq_floor) {
          violate("arq average completeness below the arq floor");
        }
        if (UnannotatedEpochs(run.results) > 0) {
          violate("arq epoch result without coverage annotation");
        }
      }

      table.AddRow({std::to_string(seed),
                    std::to_string(plan.outages().size()),
                    std::string(OptimizationModeName(cell.mode)),
                    std::string(ReliabilityProfileName(cell.reliability)),
                    TablePrinter::Num(
                        run.summary.AvgDeliveryCompleteness() * 100, 1),
                    run.summary.coverage.empty()
                        ? "-"
                        : TablePrinter::Num(run.summary.AvgCoverage() * 100,
                                            1),
                    std::to_string(duplicates),
                    std::to_string(outcome.link_drops),
                    std::to_string(run.summary.total_messages)});
    }
  }
  table.Print(std::cout);
  if (violations > 0) {
    std::fprintf(stderr, "\n%d invariant violation(s)\n", violations);
    return 1;
  }
  std::printf("\nall invariants held across %llu seed(s)\n",
              static_cast<unsigned long long>(runs));
  return 0;
}

}  // namespace
}  // namespace ttmqo

int main(int argc, char** argv) {
  try {
    return ttmqo::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos_soak: %s\n", e.what());
    return 1;
  }
}
