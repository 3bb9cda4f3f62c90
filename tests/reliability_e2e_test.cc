// End-to-end reliability-profile tests: under a lossy, crashing grid the
// arq profile must hold near-complete delivery where best-effort degrades,
// annotate every epoch with its coverage, repair gaps via NACKs, and stay
// bit-for-bit deterministic — both across repeated runs and across sweep
// worker counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics/registry.h"
#include "query/parser.h"
#include "sweep/fingerprint.h"
#include "sweep/spec.h"
#include "sweep/sweep.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

namespace ttmqo {
namespace {

constexpr SimDuration kEpoch = 4096;
constexpr SimDuration kDuration = 24 * kEpoch;

// A lossy deployment with two mid-grid crashes: the first strikes in the
// middle of a collection round (epoch 6 and a half), the canonical
// lost-partial-aggregate moment the NACK repair path exists for.
RunConfig LossyConfig(ReliabilityProfile profile) {
  RunConfig config;
  config.grid_side = 6;
  config.mode = OptimizationMode::kTwoTier;
  config.reliability = profile;
  config.duration_ms = kDuration;
  config.seed = 7;
  config.faults.SetDefaultLinkLoss(0.1);
  config.faults.AddCrash(14, 6 * kEpoch + kEpoch / 2)
      .AddCrash(22, 12 * kEpoch);
  return config;
}

std::vector<WorkloadEvent> AcquisitionSchedule() {
  return StaticSchedule({ParseQuery(
      1, "SELECT light WHERE light > 300 EPOCH DURATION 4096")});
}

TEST(ReliabilityE2eTest, ArqMeetsDeliveryFloorWhereBestEffortDegrades) {
  const auto schedule = AcquisitionSchedule();
  const RunResult off =
      RunExperiment(LossyConfig(ReliabilityProfile::kOff), schedule);
  const RunResult arq =
      RunExperiment(LossyConfig(ReliabilityProfile::kArq), schedule);

  EXPECT_GE(arq.summary.AvgDeliveryCompleteness(), 0.99)
      << "the acceptance floor of the arq profile";
  EXPECT_LT(off.summary.AvgDeliveryCompleteness(),
            arq.summary.AvgDeliveryCompleteness() - 0.02)
      << "losses must actually bite under this plan, or the floor proves "
         "nothing";

  // Reliability costs messages; the point of the profile split is that
  // the paper's best-effort numbers stay untouched while arq pays for its
  // guarantee explicitly.
  EXPECT_GT(arq.summary.total_messages, off.summary.total_messages);
}

TEST(ReliabilityE2eTest, EveryArqEpochCarriesACoverageAnnotation) {
  const auto schedule = AcquisitionSchedule();
  const RunResult off =
      RunExperiment(LossyConfig(ReliabilityProfile::kOff), schedule);
  const RunResult arq =
      RunExperiment(LossyConfig(ReliabilityProfile::kArq), schedule);

  ASSERT_FALSE(arq.results.All().empty());
  for (const EpochResult* epoch : arq.results.All()) {
    EXPECT_GE(epoch->coverage, 0.0)
        << "unannotated arq epoch at t=" << epoch->epoch_time;
    EXPECT_LE(epoch->coverage, 1.0);
    EXPECT_GE(epoch->contributing_nodes, 0);
  }
  // The summary aggregates the annotations.
  const auto it = arq.summary.coverage.find(1);
  ASSERT_NE(it, arq.summary.coverage.end());
  EXPECT_EQ(it->second.epochs,
            static_cast<std::uint64_t>(arq.results.All().size()));
  EXPECT_GT(arq.summary.AvgCoverage(), 0.9);

  // Best-effort runs stay annotation-free: the goldens of the seeded
  // pipeline must not grow new fields.
  for (const EpochResult* epoch : off.results.All()) {
    EXPECT_EQ(epoch->coverage, -1.0);
    EXPECT_EQ(epoch->contributing_nodes, -1);
  }
  EXPECT_TRUE(off.summary.coverage.empty());
}

TEST(ReliabilityE2eTest, NackRepairFiresUnderLossAndMidRoundCrash) {
  RunConfig config = LossyConfig(ReliabilityProfile::kArq);
  MetricsRegistry registry;
  config.obs.registry = &registry;
  const RunResult run = RunExperiment(config, AcquisitionSchedule());

  // The base station must have both asked for missing rows and received
  // repaired ones — otherwise the 0.99 floor is luck, not protocol.
  EXPECT_GT(registry.GetCounter("arq_repair_requests_total").Value(), 0.0);
  EXPECT_GT(registry.GetCounter("arq_repair_replies_total").Value(), 0.0);
  EXPECT_GT(registry.GetCounter("arq_retransmits_total").Value(), 0.0);
  EXPECT_GT(registry.GetCounter("arq_acks_sent_total").Value(), 0.0);
  EXPECT_GE(run.summary.AvgDeliveryCompleteness(), 0.99);
}

TEST(ReliabilityE2eTest, RepeatedArqRunsAreByteIdentical) {
  const auto schedule = AcquisitionSchedule();
  const RunResult first =
      RunExperiment(LossyConfig(ReliabilityProfile::kArq), schedule);
  const RunResult second =
      RunExperiment(LossyConfig(ReliabilityProfile::kArq), schedule);
  EXPECT_EQ(FingerprintRun(first), FingerprintRun(second))
      << "retry schedules must depend only on the run configuration";
}

TEST(ReliabilityE2eTest, SweepReliabilityAxisDeterministicAcrossJobCounts) {
  const SweepSpec spec = SweepSpec::Parse(
      "grids=4 workloads=A modes=ttmqo reliability=off,arq "
      "faults=transient seeds=2 duration-ms=36864");
  const SweepReport serial = RunSweep(spec, 1);
  const SweepReport parallel = RunSweep(spec, 4);
  ASSERT_EQ(serial.rows.size(), spec.TaskCount());
  EXPECT_EQ(serial.Canonical(), parallel.Canonical());
}

}  // namespace
}  // namespace ttmqo
