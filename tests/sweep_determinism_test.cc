// The sweep orchestrator's core guarantee: the report is a pure function
// of the spec.  Thread count, scheduling order, and repetition must not
// change a byte of the canonical output.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "sweep/spec.h"
#include "sweep/sweep.h"

namespace ttmqo {
namespace {

// Small but representative: both workload kinds, both schemes, a fault
// axis, and two replicates — 16 tasks, enough to keep 4 workers busy.
SweepSpec TestSpec() {
  return SweepSpec::Parse(
      "grids=4 workloads=A,random:4 modes=baseline,ttmqo "
      "faults=none,transient seeds=2 duration-ms=36864");
}

TEST(SweepDeterminismTest, CanonicalReportIdenticalAcrossJobCounts) {
  const SweepSpec spec = TestSpec();
  const SweepReport serial = RunSweep(spec, 1);
  const SweepReport parallel = RunSweep(spec, 4);

  ASSERT_EQ(serial.rows.size(), spec.TaskCount());
  ASSERT_EQ(parallel.rows.size(), spec.TaskCount());
  EXPECT_EQ(serial.Canonical(), parallel.Canonical());
}

TEST(SweepDeterminismTest, RepeatedParallelRunsAgree) {
  const SweepSpec spec = TestSpec();
  const SweepReport first = RunSweep(spec, 4);
  const SweepReport second = RunSweep(spec, 4);
  EXPECT_EQ(first.Canonical(), second.Canonical());
}

TEST(SweepDeterminismTest, RowsCarryRealRuns) {
  const SweepReport report = RunSweep(
      SweepSpec::Parse("grids=4 workloads=A modes=ttmqo duration-ms=36864"),
      2);
  ASSERT_EQ(report.rows.size(), 1u);
  const SweepRow& row = report.rows[0];
  EXPECT_GT(row.run.results.size(), 0u);
  EXPECT_GT(row.run.summary.total_messages, 0u);
  EXPECT_GT(row.run.events_executed, 0u);
}

TEST(SweepDeterminismTest, CanonicalOutputOmitsTiming) {
  const SweepReport report = RunSweep(
      SweepSpec::Parse("grids=4 workloads=A modes=baseline "
                       "duration-ms=36864"),
      1);
  EXPECT_EQ(report.Canonical().find("wall_ms"), std::string::npos);
  std::ostringstream timed;
  report.WriteJson(timed, /*include_timing=*/true);
  EXPECT_NE(timed.str().find("wall_ms"), std::string::npos);
}

TEST(SweepDeterminismTest, SeedsDifferAcrossReplicatesNotModes) {
  const SweepReport report = RunSweep(
      SweepSpec::Parse("grids=4 workloads=A modes=baseline,ttmqo seeds=2 "
                       "duration-ms=24576"),
      2);
  ASSERT_EQ(report.rows.size(), 4u);
  // Rows expand replicate-fastest: (baseline,0) (baseline,1) (ttmqo,0)
  // (ttmqo,1).  The two schemes must see identical inputs per replicate.
  EXPECT_EQ(report.rows[0].seed, report.rows[2].seed);
  EXPECT_EQ(report.rows[1].seed, report.rows[3].seed);
  EXPECT_NE(report.rows[0].seed, report.rows[1].seed);
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(hits.size(), 4,
              [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, PropagatesWorkerExceptions) {
  EXPECT_THROW(ParallelFor(8, 4,
                           [](std::size_t i) {
                             if (i == 5) {
                               throw std::runtime_error("task 5 failed");
                             }
                           }),
               std::runtime_error);
}

TEST(SweepSpecTest, RejectsUnknownKeys) {
  EXPECT_THROW(SweepSpec::Parse("grids=4 bogus=1"), std::invalid_argument);
  EXPECT_THROW(SweepSpec::Parse("grids=4 reliability=harden"),
               std::invalid_argument);
}

TEST(SweepSpecTest, RoundTripsThroughToString) {
  const SweepSpec spec = TestSpec();
  const SweepSpec reparsed = SweepSpec::Parse(spec.ToString());
  EXPECT_EQ(spec.ToString(), reparsed.ToString());
  EXPECT_EQ(spec.TaskCount(), reparsed.TaskCount());
}

TEST(SweepSpecTest, TaskCountIsTheAxisProduct) {
  EXPECT_EQ(TestSpec().TaskCount(), 1u * 2u * 2u * 2u * 2u);
}

}  // namespace
}  // namespace ttmqo
