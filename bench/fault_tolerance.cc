// Fault-tolerance experiment (extension; the paper lists node failures as
// future work).  Kills an increasing number of randomly chosen sensor
// nodes mid-run and measures the post-failure row delivery ratio (rows
// delivered at the base station / rows produced by surviving matching
// sensors) for the TinyDB baseline vs the full two-tier scheme.
//
// The in-network tier's dynamic DAG re-routes around dead relays, while
// the baseline's fixed routing tree loses every subtree hanging under a
// dead node until the network is re-provisioned.
//
// Usage: fault_tolerance [--side=8] [--failures=0,2,4,8,12] [--seed=N]
#include <cstdio>
#include <iostream>
#include <set>

#include "metrics/table.h"
#include "query/parser.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload/runner.h"

namespace ttmqo {
namespace {

constexpr SimDuration kEpoch = 4096;
constexpr SimTime kFailTime = 4 * kEpoch + 500;
constexpr SimDuration kDuration = 16 * kEpoch;
// Post-failure measurement window: epochs whose sampling happens after
// every fault has settled.
constexpr SimTime kMeasureFrom = 6 * kEpoch;

// Rows surviving sensors should deliver in the measurement window.
std::size_t ExpectedRows(const Query& query, const Topology& topology,
                         const FieldModel& field,
                         const std::set<NodeId>& dead) {
  std::size_t expected = 0;
  for (SimTime t = kMeasureFrom; t + query.epoch() <= kDuration;
       t += query.epoch()) {
    for (NodeId node = 1; node < topology.size(); ++node) {
      if (dead.contains(node)) continue;
      const Reading sample = field.SampleReading(
          node, topology.PositionOf(node), query.AcquiredAttributes(), t);
      if (query.predicates().Matches(sample)) ++expected;
    }
  }
  return expected;
}

std::size_t DeliveredRows(const ResultLog& log, QueryId query) {
  std::size_t delivered = 0;
  for (const EpochResult* r : log.ResultsFor(query)) {
    if (r->epoch_time >= kMeasureFrom) delivered += r->rows.size();
  }
  return delivered;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const auto side = static_cast<std::size_t>(flags.GetInt("side", 8));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 33));
  if (ReportUnreadFlags(flags)) return 2;

  const Topology topology = Topology::Grid(side);
  const auto field = MakeFieldModel(FieldKind::kCorrelated, seed);
  const Query query = ParseQuery(
      1, "SELECT light WHERE light > 400 EPOCH DURATION 4096");
  const auto schedule = StaticSchedule({query});

  std::printf("Fault tolerance: post-failure row delivery ratio "
              "(%zux%zu grid, %lld ms, failures at t=%lld ms)\n\n",
              side, side, static_cast<long long>(kDuration),
              static_cast<long long>(kFailTime));

  TablePrinter table({"failed nodes", "baseline delivery %",
                      "ttmqo delivery %"});
  for (std::size_t num_failures : {0u, 2u, 4u, 8u, 12u}) {
    // Deterministically pick distinct victims (never the base station,
    // never more than half the network).
    Rng rng(seed ^ num_failures);
    std::set<NodeId> dead;
    while (dead.size() < num_failures) {
      dead.insert(static_cast<NodeId>(
          rng.UniformInt(1, static_cast<std::int64_t>(topology.size()) - 1)));
    }
    const std::size_t expected = ExpectedRows(query, topology, *field, dead);

    std::vector<std::string> row = {std::to_string(num_failures)};
    for (OptimizationMode mode :
         {OptimizationMode::kBaseline, OptimizationMode::kTwoTier}) {
      RunConfig config;
      config.grid_side = side;
      config.mode = mode;
      config.field = FieldKind::kCorrelated;
      config.duration_ms = kDuration;
      config.seed = seed;
      for (NodeId n : dead) config.faults.AddCrash(n, kFailTime);
      const RunResult run = RunExperiment(config, schedule);
      const std::size_t delivered = DeliveredRows(run.results, query.id());
      row.push_back(TablePrinter::Num(
          expected == 0
              ? 0.0
              : 100.0 * static_cast<double>(delivered) /
                    static_cast<double>(expected),
          1));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::printf("\n100%% = every row produced by a surviving matching sensor "
              "reached the base station after the failures.\n");
  return 0;
}

}  // namespace
}  // namespace ttmqo

int main(int argc, char** argv) { return ttmqo::Main(argc, argv); }
