// Tests for mapping synthetic-query results back to user queries.
#include <gtest/gtest.h>

#include "core/bs/result_mapper.h"
#include "core/bs/rewriter.h"
#include "query/parser.h"

namespace ttmqo {
namespace {

Reading Row(NodeId node, SimTime t, double light, double temp) {
  Reading r(node, t);
  r.Set(Attribute::kLight, light);
  r.Set(Attribute::kTemp, temp);
  return r;
}

class ResultMapperTest : public ::testing::Test {
 protected:
  // A synthetic acquisition query serving three members.
  ResultMapperTest()
      : sq_(Query::Acquisition(
            1000, {Attribute::kLight, Attribute::kTemp},
            PredicateSet::Of({{Attribute::kLight, Interval(100, 800)}}),
            4096)) {
    sq_.members.emplace(
        1, ParseQuery(1, "SELECT light WHERE light BETWEEN 100 AND 400 "
                         "EPOCH DURATION 4096"));
    sq_.members.emplace(
        2, ParseQuery(2, "SELECT light, temp WHERE light BETWEEN 300 AND "
                         "800 EPOCH DURATION 8192"));
    sq_.members.emplace(
        3, ParseQuery(3, "SELECT MAX(temp) WHERE light BETWEEN 100 AND 800 "
                         "EPOCH DURATION 8192"));
  }

  EpochResult SyntheticResult(SimTime t) {
    EpochResult r;
    r.query = 1000;
    r.epoch_time = t;
    r.kind = QueryKind::kAcquisition;
    r.rows = {Row(1, t, 150, 30), Row(2, t, 350, 40), Row(3, t, 700, 10)};
    return r;
  }

  SyntheticQuery sq_;
};

TEST_F(ResultMapperTest, MembersGetReFilteredAndProjected) {
  const EpochResult synthetic = SyntheticResult(8192);
  const EpochResult q1 =
      MapMemberResult(synthetic, sq_.query, sq_.members.at(1));
  EXPECT_EQ(q1.query, 1u);
  EXPECT_EQ(q1.epoch_time, 8192);
  ASSERT_EQ(q1.rows.size(), 2u);  // light 150 and 350 are in [100,400]
  EXPECT_EQ(q1.rows[0].node(), 1);
  EXPECT_EQ(q1.rows[1].node(), 2);
  // q1 projects only light (+ nodeid) — temp must be stripped.
  EXPECT_FALSE(q1.rows[0].Has(Attribute::kTemp));
  EXPECT_TRUE(q1.rows[0].Has(Attribute::kLight));

  const EpochResult q2 =
      MapMemberResult(synthetic, sq_.query, sq_.members.at(2));
  ASSERT_EQ(q2.rows.size(), 2u);  // light 350 and 700 in [300,800]
  EXPECT_TRUE(q2.rows[0].Has(Attribute::kTemp));
}

TEST_F(ResultMapperTest, AggregationComputedFromRawRows) {
  const EpochResult q3 =
      MapMemberResult(SyntheticResult(8192), sq_.query, sq_.members.at(3));
  EXPECT_EQ(q3.query, 3u);
  EXPECT_EQ(q3.kind, QueryKind::kAggregation);
  ASSERT_EQ(q3.aggregates.size(), 1u);
  ASSERT_TRUE(q3.aggregates[0].second.has_value());
  EXPECT_DOUBLE_EQ(*q3.aggregates[0].second, 40.0);  // MAX(temp)
}

TEST_F(ResultMapperTest, AnswersCarryTheSyntheticEpochAndCoverage) {
  EpochResult synthetic = SyntheticResult(4096);
  synthetic.coverage = 0.75;
  synthetic.contributing_nodes = 3;
  for (const auto& [uid, member] : sq_.members) {
    const EpochResult mapped = MapMemberResult(synthetic, sq_.query, member);
    EXPECT_EQ(mapped.query, uid);
    EXPECT_EQ(mapped.epoch_time, 4096);
    EXPECT_DOUBLE_EQ(mapped.coverage, 0.75);
    EXPECT_EQ(mapped.contributing_nodes, 3);
  }
}

TEST_F(ResultMapperTest, EmptySyntheticRowsYieldEmptyAnswers) {
  EpochResult empty;
  empty.query = 1000;
  empty.epoch_time = 8192;
  empty.kind = QueryKind::kAcquisition;
  EXPECT_TRUE(
      MapMemberResult(empty, sq_.query, sq_.members.at(1)).rows.empty());
  // MAX over the empty set is null.
  const EpochResult q3 = MapMemberResult(empty, sq_.query, sq_.members.at(3));
  ASSERT_EQ(q3.aggregates.size(), 1u);
  EXPECT_FALSE(q3.aggregates[0].second.has_value());
}

// A synthetic query filtering on temp but projecting only light: its rows
// carry no temp, so the base station cannot re-test temp on them.
class ResidualPredicateTest : public ::testing::Test {
 protected:
  ResidualPredicateTest()
      : sq_(Query::Acquisition(
            1000, {Attribute::kLight},
            PredicateSet::Of({{Attribute::kLight, Interval(100, 800)},
                              {Attribute::kTemp, Interval(10, 50)}}),
            4096)) {}

  EpochResult SyntheticResult(SimTime t) {
    EpochResult r;
    r.query = 1000;
    r.epoch_time = t;
    r.kind = QueryKind::kAcquisition;
    for (const auto& [node, light] :
         {std::pair{1, 150.0}, std::pair{2, 350.0}, std::pair{3, 700.0}}) {
      Reading row(static_cast<NodeId>(node), t);
      row.Set(Attribute::kLight, light);
      r.rows.push_back(row);
    }
    return r;
  }

  SyntheticQuery sq_;
};

TEST_F(ResidualPredicateTest, ConstraintTheNetworkAppliedIsNotRetested) {
  // Same temp range as the synthetic query: the network already applied
  // it, so rows lacking temp still answer the member.
  sq_.members.emplace(
      1, ParseQuery(1, "SELECT light WHERE light BETWEEN 100 AND 800 AND "
                       "temp BETWEEN 10 AND 50 EPOCH DURATION 4096"));
  const EpochResult mapped =
      MapMemberResult(SyntheticResult(4096), sq_.query, sq_.members.at(1));
  ASSERT_EQ(mapped.rows.size(), 3u);
  EXPECT_EQ(mapped.rows[0].node(), 1);
  EXPECT_EQ(mapped.rows[2].node(), 3);
}

TEST_F(ResidualPredicateTest, ConstraintThatDiffersIsApplied) {
  // The light range is narrower than the synthetic query's and is
  // re-tested; the equal temp range is not.
  sq_.members.emplace(
      1, ParseQuery(1, "SELECT light WHERE light BETWEEN 100 AND 400 AND "
                       "temp BETWEEN 10 AND 50 EPOCH DURATION 4096"));
  const EpochResult mapped =
      MapMemberResult(SyntheticResult(4096), sq_.query, sq_.members.at(1));
  ASSERT_EQ(mapped.rows.size(), 2u);
  EXPECT_EQ(mapped.rows[0].node(), 1);
  EXPECT_EQ(mapped.rows[1].node(), 2);
  EXPECT_DOUBLE_EQ(*mapped.rows[1].Get(Attribute::kLight), 350.0);
}

TEST(ResultMapperAggTest, AggregateSubsetExtraction) {
  SyntheticQuery sq(Query::Aggregation(
      1000,
      {AggregateSpec{AggregateOp::kMax, Attribute::kLight},
       AggregateSpec{AggregateOp::kMin, Attribute::kLight}},
      PredicateSet::Of({{Attribute::kTemp, Interval(0, 50)}}), 4096));
  sq.members.emplace(
      1, ParseQuery(1, "SELECT MIN(light) WHERE temp <= 50 "
                       "EPOCH DURATION 8192"));
  EpochResult synthetic;
  synthetic.query = 1000;
  synthetic.epoch_time = 8192;
  synthetic.kind = QueryKind::kAggregation;
  synthetic.aggregates = {
      {AggregateSpec{AggregateOp::kMax, Attribute::kLight}, 900.0},
      {AggregateSpec{AggregateOp::kMin, Attribute::kLight}, 50.0},
  };
  const EpochResult mapped =
      MapMemberResult(synthetic, sq.query, sq.members.at(1));
  EXPECT_EQ(mapped.query, 1u);
  ASSERT_EQ(mapped.aggregates.size(), 1u);
  EXPECT_EQ(mapped.aggregates[0].first.op, AggregateOp::kMin);
  EXPECT_DOUBLE_EQ(*mapped.aggregates[0].second, 50.0);
}

}  // namespace
}  // namespace ttmqo
