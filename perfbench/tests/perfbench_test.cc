// The benchmark's own test.
//
// Fidelity: for every workload at reduced size, the benchmark's public-call
// sequence must give the same `events_executed` and
// `FingerprintRun(results, summary)` as `RunExperiment` — the fingerprint
// includes the delivery and coverage accounting the oracle fills.  Oracle:
// clean runs have no wrong answers, a corrupted row or aggregate is caught,
// and an extremum that left nodes out is partial.
#include <gtest/gtest.h>

#include <map>

#include "fidelity.h"
#include "net/topology.h"
#include "oracle.h"
#include "public_run.h"
#include "workload/runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kSeed = 1;

class FidelityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FidelityTest, PublicCallsMatchRunExperiment) {
  const std::vector<RunSpec> runs = MakeRuns(GetParam(), kSeed, true);
  ASSERT_FALSE(runs.empty());
  for (const RunSpec& spec : runs) {
    const auto diff = CompareWithRunExperiment(spec);
    EXPECT_FALSE(diff.has_value()) << *diff;
  }
}

TEST_P(FidelityTest, ReducedRunsHaveNoWrongAnswers) {
  for (const RunSpec& spec : MakeRuns(GetParam(), kSeed, true)) {
    PublicRun run = RunPublic(spec);
    const OracleTally tally = CheckAnswers(spec, run);
    EXPECT_GT(tally.operations, 0u) << spec.label;
    EXPECT_EQ(tally.wrong, 0u) << spec.label << ": "
                               << (tally.examples.empty()
                                       ? std::string()
                                       : tally.examples.front());
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, FidelityTest,
                         ::testing::ValuesIn(WorkloadNames()));

TEST(WorkloadsTest, SameSeedSameInputs) {
  for (const std::string& name : WorkloadNames()) {
    const auto a = MakeRuns(name, 7, true);
    const auto b = MakeRuns(name, 7, true);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].label, b[i].label);
      EXPECT_EQ(a[i].schedule.size(), b[i].schedule.size());
    }
  }
}

/// The first answer of `run` with a row (acquisition) or a value
/// (aggregation), copied for mutation.
std::optional<ttmqo::EpochResult> FirstAnswer(const PublicRun& run,
                                              ttmqo::QueryKind kind) {
  for (const ttmqo::EpochResult* result : run.results.All()) {
    if (result->kind != kind) continue;
    if (kind == ttmqo::QueryKind::kAcquisition && !result->rows.empty()) {
      return *result;
    }
    if (kind == ttmqo::QueryKind::kAggregation &&
        result->aggregates.front().second.has_value()) {
      return *result;
    }
  }
  return std::nullopt;
}

TEST(OracleTest, CatchesAWrongRowValue) {
  const RunSpec spec = MakeRuns("tier2_grid", kSeed, true).front();
  PublicRun run = RunPublic(spec);
  auto answer = FirstAnswer(run, ttmqo::QueryKind::kAcquisition);
  ASSERT_TRUE(answer.has_value());
  ttmqo::Reading& row = answer->rows.front();
  const ttmqo::Attribute attr = row.Has(ttmqo::Attribute::kLight)
                                    ? ttmqo::Attribute::kLight
                                    : ttmqo::Attribute::kTemp;
  ASSERT_TRUE(row.Has(attr));
  row.Set(attr, *row.Get(attr) + 0.5);
  run.results.OnResult(*answer);
  EXPECT_EQ(CheckAnswers(spec, run).wrong, 1u);
}

TEST(OracleTest, CatchesADuplicatedRow) {
  const RunSpec spec = MakeRuns("tier2_grid", kSeed, true).front();
  PublicRun run = RunPublic(spec);
  auto answer = FirstAnswer(run, ttmqo::QueryKind::kAcquisition);
  ASSERT_TRUE(answer.has_value());
  answer->rows.push_back(answer->rows.front());
  run.results.OnResult(*answer);
  EXPECT_EQ(CheckAnswers(spec, run).wrong, 1u);
}

TEST(OracleTest, CatchesAnExtremumNoNodeRead) {
  const RunSpec spec = MakeRuns("query_churn", kSeed, true).front();
  ASSERT_TRUE(LosslessAndFaultFree(spec));
  PublicRun run = RunPublic(spec);
  auto answer = FirstAnswer(run, ttmqo::QueryKind::kAggregation);
  ASSERT_TRUE(answer.has_value());
  *answer->aggregates.front().second += 1e-3;
  run.results.OnResult(*answer);
  EXPECT_EQ(CheckAnswers(spec, run).wrong, 1u);
}

/// Without loss a MAX may still miss nodes a tier-1 rewrite left out: a
/// lower matching node's reading is partial, not wrong.
TEST(OracleTest, LosslessMaxOfALeftOutNodeIsPartial) {
  const RunSpec spec = MakeRuns("query_churn", kSeed, true).front();
  ASSERT_TRUE(LosslessAndFaultFree(spec));
  PublicRun run = RunPublic(spec);
  const OracleTally clean = CheckAnswers(spec, run);
  ASSERT_EQ(clean.wrong, 0u);

  const ttmqo::Topology topology = ttmqo::Topology::Grid(
      spec.config.grid_side, spec.config.grid_spacing_feet,
      spec.config.radio.range_feet);
  const auto field = ttmqo::MakeFieldModel(spec.config.field, spec.config.seed);
  std::map<ttmqo::QueryId, ttmqo::Query> queries;
  for (const ttmqo::WorkloadEvent& event : spec.schedule) {
    if (event.query.has_value()) queries.emplace(event.id, *event.query);
  }
  // The first MAX with a lower matching reading: replace it by that one.
  std::optional<ttmqo::EpochResult> lowered;
  for (const ttmqo::EpochResult* result : run.results.All()) {
    const ttmqo::Query& query = queries.at(result->query);
    for (std::size_t i = 0; i < result->aggregates.size(); ++i) {
      const auto& [agg, value] = result->aggregates[i];
      if (agg.op != ttmqo::AggregateOp::kMax || !value.has_value()) continue;
      for (ttmqo::NodeId node = 1; node < topology.size(); ++node) {
        const ttmqo::Reading reading = field->SampleReading(
            node, topology.PositionOf(node), query.AcquiredAttributes(),
            result->epoch_time);
        if (!query.predicates().Matches(reading)) continue;
        const double other = reading.GetOrThrow(agg.attribute);
        if (other < *value - 1e-3) {
          lowered = *result;
          lowered->aggregates[i].second = other;
          break;
        }
      }
      if (lowered.has_value()) break;
    }
    if (lowered.has_value()) break;
  }
  ASSERT_TRUE(lowered.has_value());
  run.results.OnResult(*lowered);
  const OracleTally tally = CheckAnswers(spec, run);
  EXPECT_EQ(tally.wrong, 0u);
  EXPECT_EQ(tally.partial_aggregates, clean.partial_aggregates + 1);
}

}  // namespace
}  // namespace perfbench
