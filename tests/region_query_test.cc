// Region-based queries: predicates over the constant position columns
// (xpos/ypos) select a rectangle of the deployment; the SRT prunes
// dissemination to it (Section 3.2.2's "region-based query" case).
#include <gtest/gtest.h>

#include "core/innet/innet_engine.h"
#include "core/ttmqo_engine.h"
#include "query/parser.h"
#include "test_helpers.h"
#include "tinydb/tinydb_engine.h"

namespace ttmqo {
namespace {

class RegionQueryTest : public ::testing::Test {
 protected:
  RegionQueryTest() : topology_(Topology::Grid(5)), field_(7) {}

  Topology topology_;
  UniformFieldModel field_;
};

TEST_F(RegionQueryTest, ParserAcceptsPositionPredicates) {
  const Query q = ParseQuery(
      1,
      "SELECT light WHERE xpos >= 40 AND ypos >= 40 EPOCH DURATION 4096");
  EXPECT_TRUE(q.predicates().ConstraintOn(Attribute::kX).has_value());
  EXPECT_TRUE(q.predicates().ConstraintOn(Attribute::kY).has_value());
  EXPECT_TRUE(SemanticRoutingTree::IsPrunable(q.predicates()));
}

TEST_F(RegionQueryTest, OnlyRegionNodesAnswer) {
  const Query q = ParseQuery(
      1,
      "SELECT light WHERE xpos >= 40 AND ypos >= 40 EPOCH DURATION 4096");
  Network network(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log;
  InNetworkEngine engine(network, field_, &log);
  engine.SubmitQuery(q);
  network.sim().RunUntil(6 * 4096);
  const auto results = log.ResultsFor(1);
  ASSERT_FALSE(results.empty());
  for (const EpochResult* r : results) {
    // The region x,y >= 40 on a 5x5/20ft grid holds 3x3 = 9 nodes.
    EXPECT_EQ(r->rows.size(), 9u);
    for (const Reading& row : r->rows) {
      const Position& pos = topology_.PositionOf(row.node());
      EXPECT_GE(pos.x, 40.0);
      EXPECT_GE(pos.y, 40.0);
    }
  }
}

TEST_F(RegionQueryTest, MatchesOracleInBothEngines) {
  const Query q = ParseQuery(
      1, "SELECT light, xpos WHERE xpos BETWEEN 20 AND 60 AND light > 200 "
         "EPOCH DURATION 4096");
  ResultLog oracle;
  testing::FillOracle(oracle, q, 6 * 4096, field_, topology_);
  for (bool innet : {false, true}) {
    Network network(topology_, RadioParams{}, ChannelParams{}, 42);
    ResultLog log;
    std::unique_ptr<QueryEngine> engine;
    if (innet) {
      engine = std::make_unique<InNetworkEngine>(network, field_, &log);
    } else {
      engine = std::make_unique<TinyDbEngine>(network, field_, &log);
    }
    engine->SubmitQuery(q);
    network.sim().RunUntil(6 * 4096);
    const auto diff = CompareResultLogs(oracle, log, {q});
    EXPECT_FALSE(diff.has_value()) << (innet ? "innet: " : "tinydb: ")
                                   << *diff;
  }
}

TEST_F(RegionQueryTest, SrtPrunesRegionPropagation) {
  // A far-corner region: dissemination should touch far fewer nodes than a
  // flood.
  const Query q = ParseQuery(
      1,
      "SELECT light WHERE xpos >= 60 AND ypos >= 60 EPOCH DURATION 4096");
  Network network(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log;
  InNetworkEngine engine(network, field_, &log);
  engine.SubmitQuery(q);
  network.sim().RunUntil(2 * 4096);
  // A flood sends one propagation per node (SrtEngineTest's
  // ValueBasedQueriesStillFloodEverywhere pins that count).
  EXPECT_LT(network.ledger().TotalSent(MessageClass::kQueryPropagation),
            topology_.size());
}

TEST_F(RegionQueryTest, RegionAggregationThroughTheFullStack) {
  const Query q = ParseQuery(
      1, "SELECT MAX(light), COUNT(light) WHERE xpos <= 40 "
         "EPOCH DURATION 4096");
  Network network(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log;
  TtmqoOptions options;
  options.mode = OptimizationMode::kTwoTier;
  TtmqoEngine engine(network, field_, &log, options);
  engine.SubmitQuery(q);
  network.sim().RunUntil(6 * 4096);
  ResultLog oracle;
  testing::FillOracle(oracle, q, 6 * 4096, field_, topology_);
  const auto diff = CompareResultLogs(oracle, log, {q});
  EXPECT_FALSE(diff.has_value()) << *diff;
  // COUNT over the x<=40 half-plane: 3 columns x 5 rows minus the BS.
  const EpochResult* r = log.Find(1, 4096);
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->aggregates.size(), 2u);
  EXPECT_DOUBLE_EQ(*r->aggregates[0].second, *oracle.Find(1, 4096)
                                                  ->aggregates[0]
                                                  .second);
  EXPECT_DOUBLE_EQ(*r->aggregates[1].second, 14.0);
}

TEST_F(RegionQueryTest, PositionColumnsAreProjectable) {
  const Query q =
      ParseQuery(1, "SELECT xpos, ypos, light EPOCH DURATION 4096");
  Network network(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log;
  InNetworkEngine engine(network, field_, &log);
  engine.SubmitQuery(q);
  network.sim().RunUntil(2 * 4096);
  const EpochResult* r = log.Find(1, 4096);
  ASSERT_NE(r, nullptr);
  ASSERT_FALSE(r->rows.empty());
  for (const Reading& row : r->rows) {
    EXPECT_DOUBLE_EQ(row.GetOrThrow(Attribute::kX),
                     topology_.PositionOf(row.node()).x);
    EXPECT_DOUBLE_EQ(row.GetOrThrow(Attribute::kY),
                     topology_.PositionOf(row.node()).y);
  }
}

}  // namespace
}  // namespace ttmqo
