// Cross-cutting integration cases that do not fit a single module:
// node-id query rewriting, unsatisfiable predicates, maintenance traffic
// under sleep/failures, propagation-size accounting, and the busiest
// sensor's transmission time.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/bs/rewriter.h"
#include "core/ttmqo_engine.h"
#include "query/parser.h"
#include "test_helpers.h"
#include "workload/runner.h"

namespace ttmqo {
namespace {

TEST(NodeIdRewriteTest, NodeIdQueriesMergeByHull) {
  const Topology topology = Topology::Grid(4);
  const CostModel cost(topology, RadioParams{});
  BaseStationOptimizer optimizer(cost);
  (void)optimizer.InsertUserQuery(
      ParseQuery(1, "SELECT light WHERE nodeid = 5 EPOCH DURATION 4096"));
  (void)optimizer.InsertUserQuery(
      ParseQuery(2, "SELECT light WHERE nodeid = 7 EPOCH DURATION 4096"));
  // Whether they merge is a cost decision; either way both users must be
  // served and any merged query's nodeid hull covers both.
  ASSERT_NE(optimizer.SyntheticOf(1), nullptr);
  ASSERT_NE(optimizer.SyntheticOf(2), nullptr);
  if (optimizer.NumSynthetic() == 1) {
    const auto ids =
        optimizer.SyntheticOf(1)->query.predicates().ConstraintOn(
            Attribute::kNodeId);
    ASSERT_TRUE(ids.has_value());
    EXPECT_TRUE(ids->Contains(5));
    EXPECT_TRUE(ids->Contains(7));
  }
}

TEST(NodeIdRewriteTest, MergedNodeIdQueriesAnswerExactly) {
  // End-to-end: two node-id queries through the full two-tier stack; the
  // mapper must re-filter the hull back to each user's exact node.
  const std::vector<Query> queries = {
      ParseQuery(1, "SELECT light WHERE nodeid = 5 EPOCH DURATION 4096"),
      ParseQuery(2, "SELECT light WHERE nodeid = 7 EPOCH DURATION 4096"),
  };
  RunConfig config;
  config.grid_side = 4;
  config.duration_ms = 6 * 4096;
  config.seed = 3;
  config.mode = OptimizationMode::kBaseline;
  const RunResult baseline = RunExperiment(config, StaticSchedule(queries));
  config.mode = OptimizationMode::kTwoTier;
  const RunResult two_tier = RunExperiment(config, StaticSchedule(queries));
  const auto diff =
      CompareResultLogs(baseline.results, two_tier.results, queries);
  EXPECT_FALSE(diff.has_value()) << *diff;
  for (const EpochResult* r : two_tier.results.ResultsFor(1)) {
    for (const Reading& row : r->rows) EXPECT_EQ(row.node(), 5);
  }
}

TEST(UnsatisfiableQueryTest, RunsAndReturnsEmptyEpochs) {
  const Query q = ParseQuery(
      1, "SELECT light WHERE light > 600 AND light < 100 EPOCH DURATION "
         "4096");
  EXPECT_TRUE(q.predicates().IsUnsatisfiable());
  for (OptimizationMode mode :
       {OptimizationMode::kBaseline, OptimizationMode::kTwoTier}) {
    RunConfig config;
    config.grid_side = 4;
    config.duration_ms = 4 * 4096;
    config.mode = mode;
    const RunResult run = RunExperiment(config, StaticSchedule({q}));
    const auto results = run.results.ResultsFor(1);
    ASSERT_FALSE(results.empty());
    for (const EpochResult* r : results) EXPECT_TRUE(r->rows.empty());
  }
}

TEST(MaintenanceTest, BeaconsStopForFailedAndSleepingNodes) {
  const Topology topology = Topology::Grid(3);
  Network network(topology, RadioParams{}, ChannelParams{}, 2);
  network.StartMaintenanceBeacons(1000, 6);
  network.sim().ScheduleAt(3000, [&] { network.FailNode(4); });
  network.sim().ScheduleAt(3000, [&] { network.SetAsleep(5, true); });
  network.sim().RunUntil(10'000);
  const auto& failed_stats = network.ledger().StatsOf(4);
  const auto& asleep_stats = network.ledger().StatsOf(5);
  const auto& alive_stats = network.ledger().StatsOf(3);
  const auto maint =
      static_cast<std::size_t>(MessageClass::kMaintenance);
  EXPECT_LT(failed_stats.sent_by_class[maint],
            alive_stats.sent_by_class[maint]);
  EXPECT_LT(asleep_stats.sent_by_class[maint],
            alive_stats.sent_by_class[maint]);
}

TEST(PropagationSizeTest, AggregationQueriesEncodeOpAndAttribute) {
  const Query acq = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  const Query agg =
      ParseQuery(2, "SELECT MAX(light), MIN(light) EPOCH DURATION 4096");
  // Two aggregates (2 bytes each) vs two projected attributes (1 each).
  EXPECT_GT(PropagationPayloadBytes(agg), PropagationPayloadBytes(acq));
}

TEST(WithLifetimeTest, ValidationAndPreservation) {
  const Query q = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  EXPECT_THROW(q.WithLifetime(1000), std::invalid_argument);
  const Query limited = q.WithLifetime(8192);
  EXPECT_EQ(limited.lifetime(), 8192);
  // WithId keeps the lifetime.
  EXPECT_EQ(limited.WithId(9).lifetime(), 8192);
}

TEST(EnergyIntegrationTest, TtmqoLowersTheLifetimeBottleneck) {
  // The sensor that transmits most drains its battery first (transmission
  // time is the paper's energy metric); TTMQO lowers its bill too.
  const std::vector<Query> queries = {
      ParseQuery(1, "SELECT light EPOCH DURATION 4096"),
      ParseQuery(2, "SELECT light EPOCH DURATION 4096"),
      ParseQuery(3, "SELECT light, temp EPOCH DURATION 8192"),
      ParseQuery(4, "SELECT MAX(light) EPOCH DURATION 4096"),
  };
  const Topology topology = Topology::Grid(4);
  const auto field = MakeFieldModel(FieldKind::kCorrelated, 6);
  double busiest_ms[2] = {0.0, 0.0};
  int i = 0;
  for (OptimizationMode mode :
       {OptimizationMode::kTwoTier, OptimizationMode::kBaseline}) {
    Network network(topology, RadioParams{}, ChannelParams{}, 6);
    ResultLog log;
    TtmqoOptions options;
    options.mode = mode;
    TtmqoEngine engine(network, *field, &log, options);
    for (const Query& q : queries) engine.SubmitQuery(q);
    network.sim().RunUntil(20 * 8192);
    for (NodeId node = 1; node < topology.size(); ++node) {
      const double transmit_ms =
          network.ledger().StatsOf(node).TotalTransmitMs();
      busiest_ms[i] = std::max(busiest_ms[i], transmit_ms);
    }
    ++i;
  }
  EXPECT_GT(busiest_ms[1], 0.0);
  EXPECT_LT(busiest_ms[0], busiest_ms[1]);
}

}  // namespace
}  // namespace ttmqo
