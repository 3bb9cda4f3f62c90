// Tests for the workload generator, static workloads and the experiment
// runner.
#include <gtest/gtest.h>

#include <set>

#include "workload/generator.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

namespace ttmqo {
namespace {

QueryModelParams DefaultParams() {
  QueryModelParams params;
  params.predicate_selectivity = 0.6;
  return params;
}

TEST(RandomQueryModelTest, DeterministicGivenSeed) {
  RandomQueryModel a(DefaultParams(), 9);
  RandomQueryModel b(DefaultParams(), 9);
  for (QueryId i = 1; i <= 50; ++i) {
    EXPECT_EQ(a.Next(i).ToSql(), b.Next(i).ToSql());
  }
}

TEST(RandomQueryModelTest, RespectsTheSection43Model) {
  QueryModelParams params = DefaultParams();
  params.aggregation_fraction = 0.5;
  RandomQueryModel model(params, 3);
  int aggregation = 0;
  for (QueryId i = 1; i <= 400; ++i) {
    const Query q = model.Next(i);
    EXPECT_EQ(q.id(), i);
    // Epoch drawn from the paper's set.
    EXPECT_NE(std::find(params.epochs.begin(), params.epochs.end(),
                        q.epoch()),
              params.epochs.end());
    if (q.kind() == QueryKind::kAggregation) {
      ++aggregation;
      ASSERT_EQ(q.aggregates().size(), 1u);
      const AggregateOp op = q.aggregates()[0].op;
      EXPECT_TRUE(op == AggregateOp::kMax || op == AggregateOp::kMin);
    }
    // Predicate coverage: one attribute, requested width.
    const auto preds = q.predicates().AsList();
    ASSERT_LE(preds.size(), 1u);
    if (!preds.empty()) {
      const double coverage = preds[0].range.Length() /
                              AttributeRange(preds[0].attribute).Length();
      EXPECT_NEAR(coverage, 0.6, 1e-9);
    }
  }
  EXPECT_NEAR(aggregation / 400.0, 0.5, 0.1);
}

TEST(RandomQueryModelTest, SelectivityOneMeansNoPredicate) {
  QueryModelParams params = DefaultParams();
  params.predicate_selectivity = 1.0;
  RandomQueryModel model(params, 3);
  for (QueryId i = 1; i <= 20; ++i) {
    EXPECT_TRUE(model.Next(i).predicates().IsUnconstrained());
  }
}

TEST(RandomQueryModelTest, AcquisitionSelectsAllWhenConfigured) {
  QueryModelParams params = DefaultParams();
  params.aggregation_fraction = 0.0;
  params.acquisition_selects_all = true;
  RandomQueryModel model(params, 4);
  const Query q = model.Next(1);
  // All configured attributes plus nodeid.
  EXPECT_EQ(q.attributes().size(), params.attributes.size() + 1);
}

TEST(RandomQueryModelTest, RejectsBadParams) {
  QueryModelParams params = DefaultParams();
  params.epochs = {1000};  // not a multiple of 2048
  EXPECT_THROW(RandomQueryModel(params, 1), std::invalid_argument);
  params = DefaultParams();
  params.predicate_selectivity = 0.0;
  EXPECT_THROW(RandomQueryModel(params, 1), std::invalid_argument);
}

TEST(DynamicScheduleTest, WellFormed) {
  RandomQueryModel model(DefaultParams(), 5);
  const auto events = DynamicSchedule(model, 100, 40'000, 320'000, 6);
  ASSERT_EQ(events.size(), 200u);
  // Sorted by time; every submit precedes its terminate.
  std::map<QueryId, SimTime> submit_times;
  SimTime prev = 0;
  for (const auto& event : events) {
    EXPECT_GE(event.time, prev);
    prev = event.time;
    if (event.kind == WorkloadEvent::Kind::kSubmit) {
      ASSERT_TRUE(event.query.has_value());
      EXPECT_EQ(event.query->id(), event.id);
      submit_times[event.id] = event.time;
    } else {
      ASSERT_TRUE(submit_times.contains(event.id));
      // Runs at least two epochs.
      EXPECT_GE(event.time - submit_times[event.id], 2 * kMinEpochDurationMs);
    }
  }
  EXPECT_EQ(submit_times.size(), 100u);
}

TEST(DynamicScheduleTest, ConcurrencyTracksLittlesLaw) {
  RandomQueryModel model(DefaultParams(), 5);
  // duration/interarrival = 16 expected concurrent queries.
  const auto events = DynamicSchedule(model, 400, 40'000, 640'000, 6);
  double area = 0;
  int active = 0;
  SimTime prev = 0;
  for (const auto& event : events) {
    area += static_cast<double>(event.time - prev) * active;
    prev = event.time;
    active += event.kind == WorkloadEvent::Kind::kSubmit ? 1 : -1;
  }
  const double avg = area / static_cast<double>(prev);
  EXPECT_NEAR(avg, 16.0, 4.0);
}

TEST(RandomQueryModelTest, TemplatePoolRepeatsQueries) {
  QueryModelParams params = DefaultParams();
  params.template_pool = 5;
  RandomQueryModel model(params, 11);
  std::set<std::string> shapes;
  for (QueryId i = 1; i <= 200; ++i) {
    shapes.insert(model.Next(i).WithId(0).ToSql());
  }
  // Every query is one of the five templates.
  EXPECT_LE(shapes.size(), 5u);
  EXPECT_GE(shapes.size(), 2u);
}

TEST(RandomQueryModelTest, TemplatePoolIsSkewed) {
  QueryModelParams params = DefaultParams();
  params.template_pool = 10;
  RandomQueryModel model(params, 11);
  std::map<std::string, int> counts;
  for (QueryId i = 1; i <= 1000; ++i) {
    ++counts[model.Next(i).WithId(0).ToSql()];
  }
  // The hottest 20% of templates (2 of 10) should carry ~80% of arrivals.
  std::vector<int> sorted;
  for (const auto& [sql, n] : counts) sorted.push_back(n);
  std::sort(sorted.rbegin(), sorted.rend());
  const int hot = sorted.size() >= 2 ? sorted[0] + sorted[1] : sorted[0];
  EXPECT_GT(hot, 700);
}

TEST(StaticWorkloadsTest, AllWellFormed) {
  for (const char* name : {"A", "B", "C"}) {
    const auto queries = WorkloadByName(name);
    EXPECT_EQ(queries.size(), 8u);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(queries[i].id(), i + 1);
      EXPECT_TRUE(IsValidEpochDuration(queries[i].epoch()));
    }
  }
  EXPECT_THROW(WorkloadByName("Z"), std::invalid_argument);
}

TEST(StaticWorkloadsTest, WorkloadBResistsTier1) {
  // The design intent of WORKLOAD_B: tier 1 cannot collapse it much.
  const Topology topology = Topology::Grid(4);
  const CostModel cost(topology, RadioParams{});
  BaseStationOptimizer optimizer(cost);
  for (const Query& q : WorkloadB()) (void)optimizer.InsertUserQuery(q);
  EXPECT_GE(optimizer.NumSynthetic(), 6u);
}

TEST(StaticWorkloadsTest, WorkloadAIsHighlyMergeable) {
  const Topology topology = Topology::Grid(4);
  const CostModel cost(topology, RadioParams{});
  BaseStationOptimizer optimizer(cost);
  for (const Query& q : WorkloadA()) (void)optimizer.InsertUserQuery(q);
  EXPECT_LE(optimizer.NumSynthetic(), 2u);
}

TEST(RunnerTest, DeterministicGivenConfig) {
  RunConfig config;
  config.grid_side = 4;
  config.duration_ms = 6 * 4096;
  config.seed = 11;
  config.channel.collision_prob = 0.05;  // exercise the stochastic path too
  const auto schedule = StaticSchedule(WorkloadA());
  const RunResult a = RunExperiment(config, schedule);
  const RunResult b = RunExperiment(config, schedule);
  EXPECT_EQ(a.summary.total_messages, b.summary.total_messages);
  EXPECT_DOUBLE_EQ(a.summary.total_transmit_ms, b.summary.total_transmit_ms);
  EXPECT_EQ(a.summary.retransmissions, b.summary.retransmissions);
  EXPECT_EQ(a.results.size(), b.results.size());
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(RunnerTest, SeedChangesTheRun) {
  RunConfig config;
  config.grid_side = 4;
  config.duration_ms = 6 * 4096;
  config.channel.collision_prob = 0.05;
  const auto schedule = StaticSchedule(WorkloadA());
  config.seed = 1;
  const RunResult a = RunExperiment(config, schedule);
  config.seed = 2;
  const RunResult b = RunExperiment(config, schedule);
  EXPECT_NE(a.summary.total_transmit_ms, b.summary.total_transmit_ms);
}

TEST(RunnerTest, RejectsEventsOutsideTheWindow) {
  RunConfig config;
  config.duration_ms = 4096;
  auto schedule = StaticSchedule(WorkloadA(), /*at=*/8192);
  EXPECT_THROW(RunExperiment(config, schedule), std::invalid_argument);
}

TEST(RunnerTest, TracksPeakConcurrency) {
  RunConfig config;
  config.grid_side = 4;
  config.duration_ms = 8 * 4096;
  const RunResult run = RunExperiment(config, StaticSchedule(WorkloadA()));
  EXPECT_EQ(run.peak_user_queries, 8u);
  EXPECT_GT(run.avg_network_queries, 0.0);
}

}  // namespace
}  // namespace ttmqo
