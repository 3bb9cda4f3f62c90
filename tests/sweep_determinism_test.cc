// The sweep orchestrator's core guarantee: the report is a pure function
// of the spec.  Thread count, scheduling order, and repetition must not
// change a byte of the canonical output.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "metrics/registry.h"
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

TEST(SweepDeterminismTest, MetricsIdenticalAcrossJobCounts) {
  // Workers export into one registry concurrently; each run's series carry
  // distinct labels, so the document must not depend on the thread count.
  const SweepSpec spec = TestSpec();
  MetricsRegistry r1;
  MetricsRegistry r4;
  RunSweep(spec, 1, &r1);
  RunSweep(spec, 4, &r4);
  std::ostringstream serial;
  std::ostringstream parallel;
  r1.WriteJson(serial);
  r4.WriteJson(parallel);
  EXPECT_NE(serial.str().find("net_tx_total{"), std::string::npos);
  EXPECT_EQ(serial.str(), parallel.str());
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
  // Values the run would reject fail in Parse, before run_sweep echoes the
  // spec, with a message that names the field.
  const std::pair<const char*, const char*> rejected[] = {
      {"collisions=nan", "collisions"},
      {"collisions=7", "collisions"},
      {"collisions=-0.1", "collisions"},
      {"collisions=1", "collisions"},
      {"alpha=-inf", "alpha"},
      {"alpha=inf", "alpha"},
      {"alpha=-0.5", "alpha"},
      {"grids=4294967296", "grids"},
      {"grids=4,256", "grids"},
      {"grids=1", "grids"},
      {"base-seed=-1", "base-seed"},
      {"base-seed=18446744073709551615", "base-seed"},
      {"seeds=0", "seeds"},
      {"duration-ms=0", "duration-ms"},
      {"workloads=D", "workloads"},
      {"workloads=random:0", "workloads"},
      {"workloads=random:1048576", "workloads"},
      {"faults=loss:1", "faults"},
      {"faults=loss:nan", "faults"},
      {"faults=storm", "faults"},
  };
  for (const auto& [entry, field] : rejected) {
    const std::string text =
        std::string("grids=4 workloads=C modes=ttmqo seeds=1 ") + entry;
    try {
      SweepSpec::Parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << text << ": " << e.what();
    }
  }
}

TEST(SweepSpecTest, RoundTripsThroughToString) {
  const char* accepted[] = {
      "grids=4 workloads=A,random:4 modes=baseline,ttmqo "
      "faults=none,transient seeds=2 duration-ms=36864",
      "grids=2,255 workloads=B,random:1048575 modes=bs,innet "
      "faults=loss:0,loss:0.999 reliability=off,arq seeds=7 base-seed=0 "
      "duration-ms=1 collisions=0 alpha=0",
      "base-seed=9223372036854775807 collisions=0.1 alpha=0.6",
      "collisions=0.12345678901234567 alpha=1e300",
      "collisions=0.99999999999999989 alpha=123456789.123456789",
  };
  for (const char* text : accepted) {
    const SweepSpec spec = SweepSpec::Parse(text);
    const SweepSpec reparsed = SweepSpec::Parse(spec.ToString());
    EXPECT_TRUE(reparsed == spec) << text << " -> " << spec.ToString();
    EXPECT_EQ(reparsed.ToString(), spec.ToString());
  }
  EXPECT_EQ(SweepSpec::Parse(accepted[2]).base_seed, 9223372036854775807u);
}

TEST(SweepSpecTest, TaskCountIsTheAxisProduct) {
  EXPECT_EQ(TestSpec().TaskCount(), 1u * 2u * 2u * 2u * 2u);
}

}  // namespace
}  // namespace ttmqo
