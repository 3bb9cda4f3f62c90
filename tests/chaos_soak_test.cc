// Chaos-harness invariants: deterministic replay (one fault plan + seed
// reproduces a byte-identical trace and metrics export), runs unchanged by
// the soak's postmortem tail sink, duplicate-free delivery at the base
// station under faults, and the reliability win of the two-tier scheme
// under the arq profile (per-hop ARQ, liveness failover, dissemination
// retries) over the TinyDB baseline when relays drop out.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "fault/fault_plan.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "query/parser.h"
#include "sweep/fingerprint.h"
#include "util/tracing.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

namespace ttmqo {
namespace {

constexpr SimDuration kEpoch = 4096;

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

/// A fault plan exercising every event type within a 24-epoch run.
FaultPlan MixedPlan() {
  FaultPlan plan;
  plan.AddOutage(7, 1 * kEpoch, 4 * kEpoch)
      .AddOutage(11, 8 * kEpoch, 12 * kEpoch)
      .AddCrash(23, 10 * kEpoch)
      .AddLinkLoss(1, 2, 0.3, 2 * kEpoch, 6 * kEpoch)
      .AddPartition({18, 19}, 14 * kEpoch, 17 * kEpoch);
  plan.SetDefaultLinkLoss(0.02);
  return plan;
}

RunConfig ChaosConfig(OptimizationMode mode) {
  RunConfig config;
  config.grid_side = 5;
  config.mode = mode;
  config.duration_ms = 24 * kEpoch;
  config.seed = 5;
  config.faults = MixedPlan();
  if (mode != OptimizationMode::kBaseline) {
    config.reliability = ReliabilityProfile::kArq;
  }
  return config;
}

TEST(ChaosDeterminismTest, SamePlanAndSeedReplayByteIdentically) {
  const auto schedule = StaticSchedule(
      {ParseQuery(1, "SELECT light WHERE light > 400 EPOCH DURATION 4096"),
       ParseQuery(2, "SELECT MAX(temp) EPOCH DURATION 8192")});

  std::string traces[2];
  std::string metrics[2];
  std::size_t results[2];
  for (int round = 0; round < 2; ++round) {
    RunConfig config = ChaosConfig(OptimizationMode::kTwoTier);
    std::ostringstream trace_out;
    JsonlTraceWriter writer(trace_out);
    MetricsRegistry registry;
    config.obs.trace = &writer;
    config.obs.registry = &registry;
    const RunResult run = RunExperiment(config, schedule);
    writer.Flush();
    traces[round] = trace_out.str();
    std::ostringstream metrics_out;
    registry.WriteJson(metrics_out);
    metrics[round] = metrics_out.str();
    results[round] = run.results.size();
  }
  ASSERT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(results[0], results[1]);
  // The trace actually recorded fault activity (not an empty replay).
  EXPECT_NE(traces[0].find("\"fault.down\""), std::string::npos);
  EXPECT_NE(traces[0].find("\"fault.crash\""), std::string::npos);
  EXPECT_NE(traces[0].find("\"linkdrop\""), std::string::npos);
}

TEST(ChaosInvariantTest, NoDuplicateRowsReachTheBaseStation) {
  const auto schedule = StaticSchedule(
      {ParseQuery(1, "SELECT light WHERE light > 400 EPOCH DURATION 4096")});
  for (OptimizationMode mode :
       {OptimizationMode::kBaseline, OptimizationMode::kTwoTier}) {
    const RunResult run = RunExperiment(ChaosConfig(mode), schedule);
    EXPECT_EQ(DuplicateRows(run.results), 0u);
    EXPECT_GT(run.results.size(), 0u);
  }
}

TEST(ChaosInvariantTest, RandomSoakKeepsCompletenessAndUniqueness) {
  // A miniature of bench/chaos_soak: random transient outages on up to 20%
  // of the sensors; the two-tier scheme under arq must stay above a
  // completeness floor with zero duplicates, on several seeds.
  const auto schedule = StaticSchedule(
      {ParseQuery(1, "SELECT light WHERE light > 400 EPOCH DURATION 4096")});
  RandomFaultParams params;
  params.max_outages = 5;
  params.max_down_fraction = 0.2;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    RunConfig config;
    config.grid_side = 5;
    config.mode = OptimizationMode::kTwoTier;
    config.duration_ms = 24 * kEpoch;
    config.seed = seed;
    config.faults = FaultPlan::RandomTransient(params, 25, config.duration_ms,
                                               seed);
    config.reliability = ReliabilityProfile::kArq;
    const RunResult run = RunExperiment(config, schedule);
    EXPECT_EQ(DuplicateRows(run.results), 0u) << "seed " << seed;
    EXPECT_GE(run.summary.MinDeliveryCompleteness(), 0.5) << "seed " << seed;
  }
}

TEST(ChaosTraceTest, TailSinkDoesNotChangeTheSoakCells) {
  // chaos_soak --postmortem-dir runs every cell into a 256-event tail sink,
  // so tracing is on in the gating soak: each of its three cells must run
  // exactly as it does untraced.
  const auto schedule = StaticSchedule(
      {ParseQuery(1, "SELECT light WHERE light > 400 EPOCH DURATION 4096"),
       ParseQuery(2, "SELECT MAX(temp) EPOCH DURATION 8192")});
  RandomFaultParams params;
  params.max_outages = 6;
  params.max_down_fraction = 0.2;
  params.link_loss = 0.1;
  const SimDuration duration = 24 * kEpoch;
  const FaultPlan plan = FaultPlan::RandomTransient(params, 36, duration, 1);
  const std::pair<OptimizationMode, ReliabilityProfile> cells[] = {
      {OptimizationMode::kBaseline, ReliabilityProfile::kOff},
      {OptimizationMode::kTwoTier, ReliabilityProfile::kOff},
      {OptimizationMode::kTwoTier, ReliabilityProfile::kArq},
  };
  for (const auto& [mode, reliability] : cells) {
    RunConfig config;
    config.grid_side = 6;
    config.mode = mode;
    config.duration_ms = duration;
    config.seed = 1;
    config.faults = plan;
    config.reliability = reliability;
    const RunResult untraced = RunExperiment(config, schedule);
    CollectingTraceSink tail(256);
    config.obs.trace = &tail;
    const RunResult traced = RunExperiment(config, schedule);
    const std::string cell = std::string(OptimizationModeName(mode)) + "/" +
                             std::string(ReliabilityProfileName(reliability));
    EXPECT_EQ(FingerprintRun(traced), FingerprintRun(untraced)) << cell;
    EXPECT_EQ(traced.events_executed, untraced.events_executed) << cell;
    ASSERT_EQ(tail.events().size(), 256u) << cell;
    EXPECT_EQ(tail.events().back().kind, "run.end") << cell;
  }
}

TEST(ChaosFailoverTest, ArqTwoTierOutdeliversBaselineUnderOutages) {
  // Outages chosen to hurt both schemes the same way: one sensor is down
  // while the query floods (it must be re-disseminated to ever answer) and
  // two relays drop out mid-run (traffic through them must fail over).
  // The two-tier engine under arq recovers both; the baseline's fixed tree
  // and fire-and-forget dissemination cannot.  The query selects every
  // node so each outage visibly costs rows.
  const auto schedule =
      StaticSchedule({ParseQuery(1, "SELECT light EPOCH DURATION 4096")});
  FaultPlan plan;
  plan.AddOutage(24, 0, 2 * kEpoch)           // far corner, misses the flood
      .AddOutage(6, 8 * kEpoch, 12 * kEpoch)  // relay outage mid-run
      .AddOutage(12, 8 * kEpoch, 12 * kEpoch);

  double completeness[2];
  for (int i = 0; i < 2; ++i) {
    const OptimizationMode mode =
        i == 0 ? OptimizationMode::kBaseline : OptimizationMode::kTwoTier;
    RunConfig config;
    config.grid_side = 5;
    config.mode = mode;
    config.duration_ms = 24 * kEpoch;
    config.seed = 5;
    config.faults = plan;
    if (mode == OptimizationMode::kTwoTier) {
      config.reliability = ReliabilityProfile::kArq;
    }
    const RunResult run = RunExperiment(config, schedule);
    completeness[i] = run.summary.AvgDeliveryCompleteness();
    EXPECT_EQ(DuplicateRows(run.results), 0u);
  }
  EXPECT_GT(completeness[1], completeness[0])
      << "two-tier under arq should out-deliver the baseline under outages";
  EXPECT_GE(completeness[1], 0.8);
}

}  // namespace
}  // namespace ttmqo
