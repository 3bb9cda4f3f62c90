// A general experiment driver: every knob of the harness on the command
// line.  Useful for quick what-if studies without writing code.
//
//   $ run_experiment --workload=C --mode=ttmqo --side=8
//   $ run_experiment --workload=random --queries=40 --concurrency=12
//   $ run_experiment --workload=A --topology=random --nodes=30
//
// Prints the run summary and, with --compare, every mode's row plus the
// two-tier savings over the baseline, beside what each of the two modes
// delivered (flagged when the deliveries differ by more than one point:
// a mode that drops rows also saves airtime).
//
// Fault injection (all optional, deterministic):
//   --fail=<node>@<ms>         permanent crash (repeatable)
//   --down=<node>@<t0>-<t1>    transient outage [t0, t1) ms (repeatable)
//   --link-loss=<p>            independent per-delivery loss on every link
// The resolved fault plan is recorded under "fault_plan" in --metrics-out.
//
// Reliability:
//   --reliability=off|arq  named profile: "arq" adds the per-hop
//                          ack/retransmit transport with base-station gap
//                          repair and per-epoch coverage accounting, plus
//                          liveness failover and dissemination re-floods.
//                          Duplicate suppression is always on.  Default:
//                          off.
//
// Observability outputs (all optional):
//   --metrics-out=m.json   per-node/per-class counters, run gauges, the
//                          fault plan and the per-epoch time series as one
//                          JSON document
//   --trace-out=t.jsonl    radio, fault, tier-1/tier-2 decision and run
//                          events as JSON Lines; a run that fails leaves
//                          the file ending at its last event before the
//                          error
//   --trace-chrome=t.json  profiling spans (parse / tier-1 / dissemination /
//                          event loop / summarize and the sampled hot paths)
//                          as Chrome trace-event JSON for Perfetto
// With --compare, registry metrics are labeled mode="..." per run and the
// trace contains all four runs bracketed by run.start/run.end; the epoch
// series covers the final (ttmqo) run.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "fault/fault_plan.h"
#include "metrics/epoch_sampler.h"
#include "metrics/registry.h"
#include "metrics/table.h"
#include "metrics/trace.h"
#include "obs/session.h"
#include "obs/span.h"
#include "util/flags.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

namespace {

using namespace ttmqo;

OptimizationMode ParseMode(const std::string& name) {
  if (name == "baseline") return OptimizationMode::kBaseline;
  if (name == "bs") return OptimizationMode::kBaseStationOnly;
  if (name == "innet") return OptimizationMode::kInNetworkOnly;
  if (name == "ttmqo") return OptimizationMode::kTwoTier;
  throw std::invalid_argument("unknown --mode (baseline|bs|innet|ttmqo)");
}

std::ofstream OpenOutput(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open output file: " + path);
  return out;
}

/// A node id from a fault flag: a whole integer that fits `NodeId`, or
/// nullopt (65537 must not wrap onto node 1).
std::optional<NodeId> ParseNodeId(const std::string& text) {
  const auto id = ParseWholeInt(text);
  if (!id || *id < 0 || *id > std::numeric_limits<NodeId>::max()) {
    return std::nullopt;
  }
  return static_cast<NodeId>(*id);
}

/// Parses "<node>@<ms>" (for --fail) into its two numbers.
std::pair<NodeId, SimTime> ParseNodeAt(const std::string& spec,
                                       const char* flag) {
  const auto at = spec.find('@');
  if (at != std::string::npos) {
    const auto node = ParseNodeId(spec.substr(0, at));
    const auto time = ParseWholeInt(spec.substr(at + 1));
    if (node && time) return {*node, *time};
  }
  throw std::invalid_argument(std::string("--") + flag +
                              " expects <node>@<ms>, got '" + spec + "'");
}

/// Parses "<node>@<t0>-<t1>" (for --down).
OutageEvent ParseOutage(const std::string& spec) {
  const auto at = spec.find('@');
  const auto dash = spec.find('-', at == std::string::npos ? 0 : at);
  if (at != std::string::npos && dash != std::string::npos) {
    const auto node = ParseNodeId(spec.substr(0, at));
    const auto from = ParseWholeInt(spec.substr(at + 1, dash - at - 1));
    const auto until = ParseWholeInt(spec.substr(dash + 1));
    if (node && from && until) return OutageEvent{*node, *from, *until};
  }
  throw std::invalid_argument("--down expects <node>@<t0>-<t1>, got '" +
                              spec + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags = Flags::Parse(argc, argv);
    const std::string workload = flags.GetString("workload", "C");
    const bool compare = flags.GetBool("compare", false);
    const std::string mode_name = flags.GetString("mode", "ttmqo");

    RunConfig config;
    config.grid_side = PositiveCount(flags, "side", 4);
    if (flags.GetString("topology", "grid") == "random") {
      config.topology = TopologyKind::kRandom;
      config.random_nodes = PositiveCount(flags, "nodes", 25);
      config.random_side_feet = flags.GetDouble("area-side", 120.0);
    }
    config.duration_ms = flags.GetInt("duration-ms", 40 * 12288);
    config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
    config.channel.collision_prob = flags.GetDouble("collisions", 0.02);
    config.alpha = flags.GetDouble("alpha", 0.6);
    config.reliability =
        ParseReliabilityProfile(flags.GetString("reliability", "off"));

    // Fault injection.
    for (const std::string& spec : flags.GetAll("fail")) {
      const auto [node, at] = ParseNodeAt(spec, "fail");
      config.faults.AddCrash(node, at);
    }
    for (const std::string& spec : flags.GetAll("down")) {
      const OutageEvent outage = ParseOutage(spec);
      config.faults.AddOutage(outage.node, outage.from, outage.until);
    }
    const double link_loss = flags.GetDouble("link-loss", 0.0);
    if (link_loss > 0.0) config.faults.SetDefaultLinkLoss(link_loss);

    const auto metrics_out = flags.GetOptional("metrics-out");
    const auto trace_out = flags.GetOptional("trace-out");
    obs::ObsSession obs_session(obs::ObsSession::FromFlags(flags));

    std::vector<WorkloadEvent> schedule;
    {
      TTMQO_PHASE_SPAN("phase.parse");
      if (workload == "random") {
        QueryModelParams params;
        params.predicate_selectivity = 1.0;
        params.randomize_selectivity = true;
        RandomQueryModel model(params, config.seed ^ 0xabcULL);
        const std::size_t queries = PositiveCount(flags, "queries", 40);
        const double concurrency = flags.GetDouble("concurrency", 8.0);
        schedule = DynamicSchedule(model, queries, 40'000.0,
                                   concurrency * 40'000.0, config.seed);
        SimTime end = 0;
        for (const auto& event : schedule) end = std::max(end, event.time);
        config.duration_ms = std::max(config.duration_ms, end + 4 * 24576);
      } else {
        schedule = StaticSchedule(WorkloadByName(workload));
      }
    }

    if (ReportUnreadFlags(flags)) return 2;

    const std::vector<OptimizationMode> modes =
        compare ? std::vector<OptimizationMode>{
                      OptimizationMode::kBaseline,
                      OptimizationMode::kBaseStationOnly,
                      OptimizationMode::kInNetworkOnly,
                      OptimizationMode::kTwoTier}
                : std::vector<OptimizationMode>{ParseMode(mode_name)};

    MetricsRegistry registry;
    EpochSampler sampler;
    std::ofstream trace_file;
    std::unique_ptr<JsonlTraceWriter> trace_writer;
    if (trace_out.has_value()) {
      trace_file = OpenOutput(*trace_out);
      trace_writer = std::make_unique<JsonlTraceWriter>(trace_file);
    }

    TablePrinter table({"mode", "avg tx %", "messages", "retx", "results",
                        "avg net queries", "sleep %", "delivery %",
                        "coverage %"});
    double baseline_tx = -1.0;
    double baseline_delivery = 0.0;
    for (OptimizationMode mode : modes) {
      config.mode = mode;
      config.obs = RunObservability{};
      if (metrics_out.has_value()) {
        config.obs.registry = &registry;
        if (compare) {
          config.obs.labels = {
              {"mode", std::string(OptimizationModeName(mode))}};
        }
      }
      config.obs.trace = trace_writer.get();
      // One sampler serves one run: under --compare it watches the final
      // (two-tier) run.
      if (metrics_out.has_value() && mode == modes.back()) {
        config.obs.sampler = &sampler;
      }
      const RunResult run = RunExperiment(config, schedule);
      const double delivery = run.summary.AvgDeliveryCompleteness();
      if (mode == OptimizationMode::kBaseline) {
        baseline_tx = run.summary.avg_transmission_fraction;
        baseline_delivery = delivery;
      }
      table.AddRow(
          {std::string(OptimizationModeName(mode)),
           TablePrinter::Num(run.summary.avg_transmission_fraction * 100, 4),
           std::to_string(run.summary.total_messages),
           std::to_string(run.summary.retransmissions),
           std::to_string(run.results.size()),
           TablePrinter::Num(run.avg_network_queries, 2),
           TablePrinter::Num(run.summary.avg_sleep_fraction * 100, 1),
           TablePrinter::Num(delivery * 100, 1),
           run.summary.coverage.empty()
               ? "-"
               : TablePrinter::Num(run.summary.AvgCoverage() * 100, 1)});
      if (compare && mode == OptimizationMode::kTwoTier &&
          baseline_tx > 0) {
        const double gap_points = std::abs(delivery - baseline_delivery) * 100;
        std::printf(
            "TTMQO saves %.1f%% of average transmission time (delivery: "
            "baseline %.1f%%, ttmqo %.1f%%)%s\n\n",
            SavingsPercent(baseline_tx, run.summary.avg_transmission_fraction),
            baseline_delivery * 100, delivery * 100,
            gap_points > 1.0 ? " [UNEQUAL DELIVERY: the savings compare "
                               "different work]"
                             : "");
      }
    }
    table.Print(std::cout);

    if (metrics_out.has_value()) {
      std::ofstream out = OpenOutput(*metrics_out);
      out << "{\"workload\":";
      WriteJsonString(out, workload);
      out << ",\"fault_plan\":";
      config.faults.WriteJson(out);
      out << ",\"metrics\":";
      registry.WriteJson(out);
      out << ",\"epochs\":";
      sampler.WriteJsonArray(out);
      out << "}\n";
      std::printf("wrote metrics JSON to %s\n", metrics_out->c_str());
    }
    if (trace_writer != nullptr) {
      trace_writer->Flush();
      std::printf("wrote %llu trace events to %s\n",
                  static_cast<unsigned long long>(trace_writer->events()),
                  trace_out->c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
