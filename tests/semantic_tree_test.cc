// Tests for the Semantic Routing Tree and its dissemination pruning.
#include <gtest/gtest.h>

#include "core/innet/innet_engine.h"
#include "query/parser.h"
#include "routing/semantic_tree.h"
#include "test_helpers.h"
#include "tinydb/tinydb_engine.h"

namespace ttmqo {
namespace {

class SemanticTreeTest : public ::testing::Test {
 protected:
  SemanticTreeTest()
      : topology_(Topology::Grid(4)),
        quality_(topology_, 13),
        tree_(topology_, quality_),
        srt_(topology_, tree_) {}

  Topology topology_;
  LinkQualityMap quality_;
  RoutingTree tree_;
  SemanticRoutingTree srt_;
};

TEST_F(SemanticTreeTest, SubtreeRangesContainEveryDescendant) {
  for (NodeId node = 0; node < topology_.size(); ++node) {
    // Walk each node up to the root; every ancestor's range contains it.
    NodeId cur = node;
    while (true) {
      EXPECT_TRUE(
          srt_.SubtreeIds(cur).Contains(static_cast<double>(node)))
          << "ancestor " << cur << " misses " << node;
      EXPECT_TRUE(srt_.SubtreeX(cur).Contains(topology_.PositionOf(node).x));
      EXPECT_TRUE(srt_.SubtreeY(cur).Contains(topology_.PositionOf(node).y));
      if (cur == kBaseStationId) break;
      cur = tree_.ParentOf(cur);
      if (!srt_.SubtreeIds(cur).Contains(static_cast<double>(node))) break;
    }
  }
}

TEST_F(SemanticTreeTest, RootCoversEverything) {
  EXPECT_TRUE(srt_.SubtreeIds(kBaseStationId).Contains(0));
  EXPECT_TRUE(srt_.SubtreeIds(kBaseStationId)
                  .Contains(static_cast<double>(topology_.size() - 1)));
}

TEST_F(SemanticTreeTest, LeafCoversOnlyItself) {
  for (NodeId node = 0; node < topology_.size(); ++node) {
    if (!tree_.ChildrenOf(node).empty()) continue;
    const Interval& ids = srt_.SubtreeIds(node);
    EXPECT_DOUBLE_EQ(ids.lo(), static_cast<double>(node));
    EXPECT_DOUBLE_EQ(ids.hi(), static_cast<double>(node));
  }
}

TEST_F(SemanticTreeTest, MatchGates) {
  PredicateSet node5 =
      PredicateSet::Of({{Attribute::kNodeId, Interval(5, 5)}});
  PredicateSet value_based =
      PredicateSet::Of({{Attribute::kLight, Interval(0, 500)}});
  EXPECT_TRUE(SemanticRoutingTree::IsPrunable(node5));
  EXPECT_FALSE(SemanticRoutingTree::IsPrunable(value_based));
  EXPECT_TRUE(srt_.SubtreeMayMatch(kBaseStationId, node5));
  // Value-based constraints never prune.
  for (NodeId node = 0; node < topology_.size(); ++node) {
    EXPECT_TRUE(srt_.SubtreeMayMatch(node, value_based));
  }
  // A leaf other than 5 cannot match nodeid = 5.
  for (NodeId node = 1; node < topology_.size(); ++node) {
    if (tree_.ChildrenOf(node).empty() && node != 5) {
      EXPECT_FALSE(srt_.SubtreeMayMatch(node, node5));
    }
  }
}

class SrtEngineTest : public ::testing::TestWithParam<bool> {
 protected:
  SrtEngineTest() : topology_(Topology::Grid(6)), field_(7) {}

  /// The engine under test (tier 2 when the parameter is true).
  std::unique_ptr<QueryEngine> MakeEngine(Network& network, ResultLog& log) {
    if (GetParam()) {
      return std::make_unique<InNetworkEngine>(network, field_, &log);
    }
    return std::make_unique<TinyDbEngine>(network, field_, &log);
  }

  Topology topology_;
  UniformFieldModel field_;
};

TEST_P(SrtEngineTest, NodeIdQueryAnswersIdenticallyWithAndWithoutSrt) {
  // The SRT prunes the dissemination, never an answer: the pruned run
  // matches the field oracle, which involves no routing at all.
  const Query q = ParseQuery(
      1, "SELECT light WHERE nodeid = 17 EPOCH DURATION 4096");
  Network network(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log;
  const std::unique_ptr<QueryEngine> engine = MakeEngine(network, log);
  engine->SubmitQuery(q);
  network.sim().RunUntil(8 * 4096);
  ResultLog oracle;
  testing::FillOracle(oracle, q, 8 * 4096, field_, topology_);
  const auto diff = CompareResultLogs(oracle, log, {q});
  EXPECT_FALSE(diff.has_value()) << *diff;
  // And the answers are exactly node 17's readings.
  const auto results = log.ResultsFor(1);
  ASSERT_FALSE(results.empty());
  for (const EpochResult* r : results) {
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0].node(), 17);
  }
}

TEST_P(SrtEngineTest, SrtCutsPropagationTraffic) {
  const Query q = ParseQuery(
      1, "SELECT light WHERE nodeid = 35 EPOCH DURATION 4096");
  Network network(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log;
  const std::unique_ptr<QueryEngine> engine = MakeEngine(network, log);
  engine->SubmitQuery(q);
  network.sim().RunUntil(4 * 4096);
  // A flood rebroadcasts once per node (36 messages; pinned by
  // ValueBasedQueriesStillFloodEverywhere); with the SRT only the path
  // toward node 35's subtree does.
  const std::uint64_t prop =
      network.ledger().TotalSent(MessageClass::kQueryPropagation);
  EXPECT_LT(prop, topology_.size() / 2)
      << "with SRT: " << prop << ", flood: " << topology_.size();
}

TEST_P(SrtEngineTest, AbortFollowsThePropagationsPrune) {
  // Only the nodes that carried the query into their subtree carry its
  // termination, so on a lossless channel the abort flood sends exactly
  // as many messages as the pruned propagation did.
  const Query q = ParseQuery(
      1, "SELECT light WHERE nodeid = 35 EPOCH DURATION 4096");
  Network network(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log;
  const std::unique_ptr<QueryEngine> engine = MakeEngine(network, log);
  engine->SubmitQuery(q);
  network.sim().RunUntil(4 * 4096);
  engine->TerminateQuery(1);
  network.sim().RunUntil(8 * 4096);
  const std::uint64_t prop =
      network.ledger().TotalSent(MessageClass::kQueryPropagation);
  EXPECT_LT(prop, topology_.size() / 2);
  EXPECT_EQ(network.ledger().TotalSent(MessageClass::kQueryAbort), prop);
}

TEST_P(SrtEngineTest, ValueBasedQueriesStillFloodEverywhere) {
  const Query q =
      ParseQuery(1, "SELECT light WHERE light > 900 EPOCH DURATION 4096");
  Network network(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log;
  const std::unique_ptr<QueryEngine> engine = MakeEngine(network, log);
  engine->SubmitQuery(q);
  network.sim().RunUntil(2 * 4096);
  // One rebroadcast per node (including the base station's initial send).
  EXPECT_EQ(network.ledger().TotalSent(MessageClass::kQueryPropagation),
            topology_.size());
}

INSTANTIATE_TEST_SUITE_P(BothEngines, SrtEngineTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "InNetwork" : "TinyDb";
                         });

}  // namespace
}  // namespace ttmqo
