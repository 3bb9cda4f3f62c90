// Tests for tier 1: integration rules, cost model (Eq. 1-3), Algorithm 1
// (greedy insertion with recursive re-integration) and Algorithm 2
// (adaptive termination), including the paper's Section 3.1.3 worked
// example.
#include <gtest/gtest.h>

#include "core/bs/cost_model.h"
#include "core/bs/integration.h"
#include "core/bs/rewriter.h"
#include "query/parser.h"

namespace ttmqo {
namespace {

Query Acq(QueryId id, double lo, double hi, SimDuration epoch) {
  return Query::Acquisition(
      id, {Attribute::kLight},
      PredicateSet::Of({{Attribute::kLight, Interval(lo, hi)}}), epoch);
}

class BsOptimizerTest : public ::testing::Test {
 protected:
  BsOptimizerTest()
      : topology_(Topology::Grid(4)), cost_(topology_, RadioParams{}) {}

  BaseStationOptimizer MakeOptimizer(double alpha = 0.6) {
    BaseStationOptimizer::Options options;
    options.alpha = alpha;
    return BaseStationOptimizer(cost_, options);
  }

  Topology topology_;
  CostModel cost_;
};

// ---------------------------------------------------------------- rules --

TEST_F(BsOptimizerTest, RewritabilityRules) {
  const Query acq1 = Acq(1, 0, 500, 4096);
  const Query acq2 = Acq(2, 400, 900, 8192);
  const Query agg1 = ParseQuery(
      3, "SELECT MAX(light) WHERE light < 500 EPOCH DURATION 4096");
  const Query agg2 = ParseQuery(
      4, "SELECT MIN(light) WHERE light < 500 EPOCH DURATION 8192");
  const Query agg3 = ParseQuery(
      5, "SELECT MAX(light) WHERE light > 600 EPOCH DURATION 4096");
  EXPECT_TRUE(IsRewritable(acq1, acq2));
  EXPECT_TRUE(IsRewritable(acq1, agg1));
  EXPECT_TRUE(IsRewritable(agg1, agg2));  // identical predicates
  EXPECT_FALSE(IsRewritable(agg1, agg3)); // different predicates
}

TEST_F(BsOptimizerTest, IntegrateAcquisitionPair) {
  const auto merged = Integrate(100, Acq(1, 100, 300, 8192),
                                Acq(2, 280, 600, 4096));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->kind(), QueryKind::kAcquisition);
  EXPECT_EQ(merged->epoch(), 4096);
  EXPECT_EQ(merged->predicates().ConstraintOn(Attribute::kLight),
            Interval(100, 600));
}

TEST_F(BsOptimizerTest, IntegrateAggregationPairUnionsAggList) {
  const Query agg1 = ParseQuery(
      1, "SELECT MAX(light) WHERE temp < 50 EPOCH DURATION 4096");
  const Query agg2 = ParseQuery(
      2, "SELECT MIN(light) WHERE temp < 50 EPOCH DURATION 8192");
  const auto merged = Integrate(100, agg1, agg2);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->kind(), QueryKind::kAggregation);
  EXPECT_EQ(merged->aggregates().size(), 2u);
  EXPECT_EQ(merged->epoch(), 4096);
  EXPECT_EQ(merged->predicates(), agg1.predicates());
}

TEST_F(BsOptimizerTest, IntegrateMixedBecomesAcquisition) {
  const Query acq = Acq(1, 0, 800, 4096);
  const Query agg = ParseQuery(
      2, "SELECT MAX(temp) WHERE light < 500 EPOCH DURATION 8192");
  const auto merged = Integrate(100, acq, agg);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->kind(), QueryKind::kAcquisition);
  // The merged query must acquire temp (the aggregate input).
  const auto& attrs = merged->attributes();
  EXPECT_NE(std::find(attrs.begin(), attrs.end(), Attribute::kTemp),
            attrs.end());
}

TEST_F(BsOptimizerTest, CoverageRules) {
  const Query broad = Acq(1, 0, 800, 4096);
  const Query narrow = Acq(2, 100, 600, 8192);
  EXPECT_TRUE(Covers(broad, narrow));
  EXPECT_FALSE(Covers(narrow, broad));
  // Epoch must divide.
  const Query odd_epoch = Acq(3, 100, 600, 6144);
  EXPECT_FALSE(Covers(broad, odd_epoch));
  // Aggregation covered by raw data.
  const Query agg = ParseQuery(
      4, "SELECT MAX(light) WHERE light BETWEEN 100 AND 500 "
         "EPOCH DURATION 8192");
  EXPECT_TRUE(Covers(broad, agg));
  // ... but only when the acquisition acquires the aggregate's input.
  const Query temp_agg =
      ParseQuery(5, "SELECT MAX(temp) EPOCH DURATION 8192");
  EXPECT_FALSE(Covers(broad, temp_agg));
  // An aggregation query covers an aggregate subset with equal predicates.
  const Query agg_super = ParseQuery(
      6, "SELECT MAX(light), MIN(light) WHERE temp < 40 EPOCH DURATION 4096");
  const Query agg_sub = ParseQuery(
      7, "SELECT MAX(light) WHERE temp < 40 EPOCH DURATION 8192");
  EXPECT_TRUE(Covers(agg_super, agg_sub));
  EXPECT_FALSE(Covers(agg_sub, agg_super));
  // An aggregation stream can never answer an acquisition query.
  EXPECT_FALSE(Covers(agg_super, broad));
}

// ------------------------------------------------------------ cost model --

TEST_F(BsOptimizerTest, ResultRateMatchesEq1) {
  // 4x4 grid: levels per BFS; sel is uniform-prior width/L.
  const Query q = Acq(1, 0, 500, 4096);  // sel = 0.5
  const auto& per_level = topology_.NodesPerLevel();
  for (std::size_t k = 1; k < per_level.size(); ++k) {
    EXPECT_DOUBLE_EQ(
        cost_.ResultRate(q, k),
        0.5 * static_cast<double>(per_level[k]) / 4096.0);
  }
  // Level 0 holds only the base station, which is not a sensor.
  EXPECT_DOUBLE_EQ(cost_.ResultRate(q, 0), 0.0);
  EXPECT_DOUBLE_EQ(cost_.ResultRate(q, 99), 0.0);
}

TEST_F(BsOptimizerTest, TransmissionsMatchEq2) {
  const Query q = Acq(1, 0, 1000, 4096);  // sel = 1
  double expected = 0.0;
  const auto& per_level = topology_.NodesPerLevel();
  for (std::size_t k = 1; k < per_level.size(); ++k) {
    expected += static_cast<double>(per_level[k] * k) / 4096.0;
  }
  EXPECT_DOUBLE_EQ(cost_.Transmissions(q), expected);
}

TEST_F(BsOptimizerTest, AggregationUsesLowerBound) {
  const Query agg = ParseQuery(1, "SELECT MAX(light) EPOCH DURATION 4096");
  // Lower bound: one result per sensor per epoch, no depth weighting.
  EXPECT_DOUBLE_EQ(cost_.Transmissions(agg),
                   static_cast<double>(topology_.size() - 1) / 4096.0);
  const Query acq = ParseQuery(2, "SELECT light EPOCH DURATION 4096");
  EXPECT_LT(cost_.Transmissions(agg), cost_.Transmissions(acq));
}

TEST_F(BsOptimizerTest, CostScalesWithMessageLengthAndRate) {
  const Query small = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  const Query wide =
      ParseQuery(2, "SELECT light, temp, humidity EPOCH DURATION 4096");
  const Query slow = ParseQuery(3, "SELECT light EPOCH DURATION 16384");
  EXPECT_LT(cost_.Cost(small), cost_.Cost(wide));
  EXPECT_DOUBLE_EQ(cost_.Cost(small), 4.0 * cost_.Cost(slow));
}

// ------------------------------------------------- Algorithm 1 behaviour --

TEST_F(BsOptimizerTest, FirstQueryBecomesItsOwnSynthetic) {
  auto opt = MakeOptimizer();
  const auto actions = opt.InsertUserQuery(Acq(1, 100, 300, 4096));
  ASSERT_EQ(actions.inject.size(), 1u);
  EXPECT_TRUE(actions.abort.empty());
  EXPECT_EQ(opt.NumSynthetic(), 1u);
  const SyntheticQuery* sq = opt.SyntheticOf(1);
  ASSERT_NE(sq, nullptr);
  EXPECT_EQ(sq->members.size(), 1u);
  EXPECT_DOUBLE_EQ(sq->benefit, 0.0);
}

TEST_F(BsOptimizerTest, CoveredQueryChangesNothingInTheNetwork) {
  auto opt = MakeOptimizer();
  (void)opt.InsertUserQuery(Acq(1, 0, 800, 4096));
  const auto actions = opt.InsertUserQuery(Acq(2, 100, 600, 8192));
  EXPECT_TRUE(actions.Empty());
  EXPECT_EQ(opt.NumSynthetic(), 1u);
  EXPECT_EQ(opt.SyntheticOf(2), opt.SyntheticOf(1));
  EXPECT_GT(opt.SyntheticOf(1)->benefit, 0.0);
}

TEST_F(BsOptimizerTest, BenefitRateIsOneExactlyForCoverage) {
  auto opt = MakeOptimizer();
  (void)opt.InsertUserQuery(Acq(1, 0, 800, 4096));
  const SyntheticQuery* sq = opt.SyntheticOf(1);
  ASSERT_NE(sq, nullptr);
  EXPECT_DOUBLE_EQ(opt.BenefitRate(Acq(2, 100, 600, 8192), *sq), 1.0);
  EXPECT_LT(opt.BenefitRate(Acq(3, 0, 900, 4096), *sq), 1.0);
  EXPECT_GT(opt.BenefitRate(Acq(3, 0, 900, 4096), *sq), 0.0);
}

TEST_F(BsOptimizerTest, ZeroCostQueryHasZeroBenefitRate) {
  // A 1-node "grid" is just the base station: no sensor ever transmits, so
  // every query costs 0 and Algorithm 1 must treat merging as "no benefit"
  // instead of dividing by the zero cost.
  const Topology lone = Topology::Grid(1);
  const CostModel cost(lone, RadioParams{});
  BaseStationOptimizer opt(cost);
  (void)opt.InsertUserQuery(Acq(1, 0, 500, 4096));
  const SyntheticQuery* sq = opt.SyntheticOf(1);
  ASSERT_NE(sq, nullptr);
  const Query wider = Acq(2, 0, 900, 4096);  // rewritable, not covered
  ASSERT_DOUBLE_EQ(cost.Cost(wider), 0.0);
  EXPECT_DOUBLE_EQ(opt.BenefitRate(wider, *sq), 0.0);
}

TEST_F(BsOptimizerTest, NonCoveringMergeRateStaysStrictlyBelowOne) {
  auto opt = MakeOptimizer();
  (void)opt.InsertUserQuery(Acq(1, 0, 999.9, 4096));
  const SyntheticQuery* sq = opt.SyntheticOf(1);
  ASSERT_NE(sq, nullptr);
  // A barely-wider arrival: the merged query is nearly identical to the
  // synthetic, pushing the rate toward 1 — but exactly 1.0 is reserved for
  // structural coverage, so a merge must stay strictly below it.
  const double rate = opt.BenefitRate(Acq(2, 0, 1000, 4096), *sq);
  EXPECT_GT(rate, 0.9);
  EXPECT_LT(rate, 1.0);
}

TEST_F(BsOptimizerTest, CoverageTieBreaksToLowestSyntheticId) {
  // Two synthetics that both cover the arrival with rate exactly 1.0: the
  // decision must deterministically pin to the lowest synthetic id in both
  // search modes (the naive scan breaks at the first covering candidate of
  // its ascending-id walk; the index must reproduce that, not its own scan
  // order).
  for (const bool use_index : {true, false}) {
    BaseStationOptimizer::Options options;
    options.use_index = use_index;
    BaseStationOptimizer opt(cost_, options);
    (void)opt.InsertUserQuery(Acq(1, 0, 600, 4096));
    (void)opt.InsertUserQuery(Acq(2, 400, 1000, 12288));
    ASSERT_EQ(opt.NumSynthetic(), 2u)
        << "use_index=" << use_index << ": A and B must not merge";
    const Query probe = Acq(99, 450, 550, 12288);
    ASSERT_DOUBLE_EQ(opt.BenefitRate(probe, *opt.SyntheticOf(1)), 1.0);
    ASSERT_DOUBLE_EQ(opt.BenefitRate(probe, *opt.SyntheticOf(2)), 1.0);
    const auto actions = opt.InsertUserQuery(Acq(3, 450, 550, 12288));
    EXPECT_TRUE(actions.Empty()) << "use_index=" << use_index;
    EXPECT_EQ(opt.SyntheticOf(3), opt.SyntheticOf(1))
        << "use_index=" << use_index
        << ": a coverage tie must land in the lowest-id synthetic";
  }
}

TEST_F(BsOptimizerTest, PaperWorkedExample) {
  // Section 3.1.3 (epochs scaled to ms):
  //   q1: light in (280,600) epoch 4096
  //   q2: light in (100,300) epoch 8192  -> not beneficial with q1
  //   q3: light in (150,500) epoch 8192  -> merges with q2', then the
  //        merged query re-integrates with q1', ending in
  //        q1'': light in (100,600) epoch 4096 serving all three.
  auto opt = MakeOptimizer();
  (void)opt.InsertUserQuery(Acq(1, 280, 600, 4096));
  (void)opt.InsertUserQuery(Acq(2, 100, 300, 8192));
  EXPECT_EQ(opt.NumSynthetic(), 2u) << "q1 and q2 must not merge";

  (void)opt.InsertUserQuery(Acq(3, 150, 500, 8192));
  ASSERT_EQ(opt.NumSynthetic(), 1u) << "chained rewrite must collapse all";
  const SyntheticQuery* sq = opt.SyntheticOf(1);
  ASSERT_NE(sq, nullptr);
  EXPECT_EQ(sq->members.size(), 3u);
  EXPECT_EQ(sq->query.epoch(), 4096);
  EXPECT_EQ(sq->query.predicates().ConstraintOn(Attribute::kLight),
            Interval(100, 600));
}

TEST_F(BsOptimizerTest, IdenticalPredicateAggregationsAlwaysMerge) {
  auto opt = MakeOptimizer();
  (void)opt.InsertUserQuery(ParseQuery(
      1, "SELECT MAX(light) WHERE temp < 50 EPOCH DURATION 4096"));
  const auto actions = opt.InsertUserQuery(ParseQuery(
      2, "SELECT MIN(light) WHERE temp < 50 EPOCH DURATION 8192"));
  EXPECT_EQ(opt.NumSynthetic(), 1u);
  const SyntheticQuery* sq = opt.SyntheticOf(2);
  ASSERT_NE(sq, nullptr);
  EXPECT_EQ(sq->query.kind(), QueryKind::kAggregation);
  EXPECT_EQ(sq->query.aggregates().size(), 2u);
  // The old synthetic was replaced: one abort, one inject.
  EXPECT_EQ(actions.abort.size(), 1u);
  EXPECT_EQ(actions.inject.size(), 1u);
}

TEST_F(BsOptimizerTest, DifferentPredicateAggregationsStaySeparate) {
  auto opt = MakeOptimizer();
  (void)opt.InsertUserQuery(ParseQuery(
      1, "SELECT MAX(light) WHERE light < 400 EPOCH DURATION 4096"));
  (void)opt.InsertUserQuery(ParseQuery(
      2, "SELECT MAX(light) WHERE light > 600 EPOCH DURATION 4096"));
  EXPECT_EQ(opt.NumSynthetic(), 2u);
}

TEST_F(BsOptimizerTest, AggregationCoveredByAcquisitionIsSuppressed) {
  auto opt = MakeOptimizer();
  (void)opt.InsertUserQuery(
      ParseQuery(1, "SELECT light, temp EPOCH DURATION 4096"));
  const auto actions = opt.InsertUserQuery(ParseQuery(
      2, "SELECT MAX(light) WHERE temp < 50 EPOCH DURATION 8192"));
  EXPECT_TRUE(actions.Empty());
  EXPECT_EQ(opt.NumSynthetic(), 1u);
}

TEST_F(BsOptimizerTest, UserIdInSyntheticSpaceRejected) {
  auto opt = MakeOptimizer();
  EXPECT_THROW(opt.InsertUserQuery(Acq(1u << 21, 0, 100, 4096)),
               std::invalid_argument);
}

// ------------------------------------------------- Algorithm 2 behaviour --

TEST_F(BsOptimizerTest, LastMemberTerminationRetiresTheSynthetic) {
  auto opt = MakeOptimizer();
  const auto insert = opt.InsertUserQuery(Acq(1, 100, 300, 4096));
  const QueryId sid = insert.inject.front().id();
  const auto actions = opt.TerminateUserQuery(1);
  ASSERT_EQ(actions.abort.size(), 1u);
  EXPECT_EQ(actions.abort.front(), sid);
  EXPECT_EQ(opt.NumSynthetic(), 0u);
  EXPECT_EQ(opt.NumUserQueries(), 0u);
}

TEST_F(BsOptimizerTest, CoveredMemberTerminationIsFree) {
  auto opt = MakeOptimizer();
  (void)opt.InsertUserQuery(Acq(1, 0, 800, 4096));
  (void)opt.InsertUserQuery(Acq(2, 100, 600, 8192));  // covered
  const auto actions = opt.TerminateUserQuery(2);
  EXPECT_TRUE(actions.Empty());
  EXPECT_EQ(opt.NumSynthetic(), 1u);
}

TEST_F(BsOptimizerTest, AlphaZeroAlwaysRebuildsWhenRequirementsShrink) {
  auto opt = MakeOptimizer(/*alpha=*/0.0);
  (void)opt.InsertUserQuery(Acq(1, 0, 500, 4096));
  (void)opt.InsertUserQuery(Acq(2, 450, 950, 4096));
  ASSERT_EQ(opt.NumSynthetic(), 1u);  // merged: [0,950]
  const auto actions = opt.TerminateUserQuery(2);
  // With alpha = 0 the over-wide synthetic query must be rebuilt to the
  // remaining member's own shape.
  EXPECT_FALSE(actions.Empty());
  const SyntheticQuery* sq = opt.SyntheticOf(1);
  ASSERT_NE(sq, nullptr);
  EXPECT_EQ(sq->query.predicates().ConstraintOn(Attribute::kLight),
            Interval(0, 500));
}

TEST_F(BsOptimizerTest, LargeAlphaHidesTerminationFromTheNetwork) {
  auto opt = MakeOptimizer(/*alpha=*/1000.0);
  (void)opt.InsertUserQuery(Acq(1, 0, 500, 4096));
  (void)opt.InsertUserQuery(Acq(2, 450, 950, 4096));
  ASSERT_EQ(opt.NumSynthetic(), 1u);
  const auto actions = opt.TerminateUserQuery(2);
  EXPECT_TRUE(actions.Empty()) << "huge alpha tolerates the over-wide query";
  const SyntheticQuery* sq = opt.SyntheticOf(1);
  ASSERT_NE(sq, nullptr);
  EXPECT_EQ(sq->query.predicates().ConstraintOn(Attribute::kLight),
            Interval(0, 950));  // unchanged
}

TEST_F(BsOptimizerTest, BenefitAccountingConsistent) {
  auto opt = MakeOptimizer();
  (void)opt.InsertUserQuery(Acq(1, 0, 500, 4096));
  (void)opt.InsertUserQuery(Acq(2, 100, 600, 4096));
  const double user_cost = opt.TotalUserCost();
  const double benefit = opt.TotalBenefit();
  double synthetic_cost = 0.0;
  for (const SyntheticQuery* sq : opt.Synthetics()) {
    synthetic_cost += cost_.Cost(sq->query);
  }
  EXPECT_NEAR(benefit, user_cost - synthetic_cost, 1e-12);
  EXPECT_GT(benefit, 0.0);
}

TEST_F(BsOptimizerTest, ManySimilarQueriesCollapseToFewSynthetics) {
  auto opt = MakeOptimizer();
  for (QueryId i = 1; i <= 16; ++i) {
    const double lo = 100.0 + 10.0 * static_cast<double>(i);
    (void)opt.InsertUserQuery(Acq(i, lo, lo + 400.0, 4096));
  }
  EXPECT_EQ(opt.NumUserQueries(), 16u);
  EXPECT_LE(opt.NumSynthetic(), 2u);
  EXPECT_GT(opt.TotalBenefit() / opt.TotalUserCost(), 0.5);
}

}  // namespace
}  // namespace ttmqo
