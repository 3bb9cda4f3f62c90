// Unit tests for predicates, queries and aggregates.
#include <gtest/gtest.h>

#include <vector>

#include "query/aggregate.h"
#include "query/engine.h"
#include "query/parser.h"
#include "query/predicate.h"
#include "query/query.h"
#include "util/check.h"
#include "workload/generator.h"
#include "workload/static_workloads.h"

namespace ttmqo {
namespace {

Reading MakeReading(NodeId node, double light, double temp) {
  Reading r(node, 2048);
  r.Set(Attribute::kLight, light);
  r.Set(Attribute::kTemp, temp);
  return r;
}

TEST(PredicateTest, MatchRequiresPresence) {
  Predicate p{Attribute::kLight, Interval(100, 200)};
  EXPECT_TRUE(p.Matches(MakeReading(1, 150, 0)));
  EXPECT_FALSE(p.Matches(MakeReading(1, 300, 0)));
  Reading no_light(1, 0);
  EXPECT_FALSE(p.Matches(no_light));
}

TEST(PredicateSetTest, VacuousConstraintsAreDropped) {
  PredicateSet set;
  set.Constrain(Attribute::kLight, AttributeRange(Attribute::kLight));
  EXPECT_TRUE(set.IsUnconstrained());
  set.Constrain(Attribute::kLight, Interval(-100, 2000));
  EXPECT_TRUE(set.IsUnconstrained());
}

TEST(PredicateSetTest, MultipleConstraintsIntersect) {
  PredicateSet set;
  set.Constrain(Attribute::kLight, Interval(100, 600));
  set.Constrain(Attribute::kLight, Interval(280, 900));
  EXPECT_EQ(set.ConstraintOn(Attribute::kLight), Interval(280, 600));
}

TEST(PredicateSetTest, UnsatisfiableDetected) {
  PredicateSet set;
  set.Constrain(Attribute::kLight, Interval(0, 100));
  set.Constrain(Attribute::kLight, Interval(200, 300));
  EXPECT_TRUE(set.IsUnsatisfiable());
}

TEST(PredicateSetTest, MatchesConjunction) {
  PredicateSet set = PredicateSet::Of({
      {Attribute::kLight, Interval(100, 600)},
      {Attribute::kTemp, Interval(20, 40)},
  });
  EXPECT_TRUE(set.Matches(MakeReading(1, 300, 30)));
  EXPECT_FALSE(set.Matches(MakeReading(1, 700, 30)));
  EXPECT_FALSE(set.Matches(MakeReading(1, 300, 50)));
}

TEST(PredicateSetTest, CoversSetOf) {
  PredicateSet wide = PredicateSet::Of({{Attribute::kLight, Interval(0, 800)}});
  PredicateSet narrow =
      PredicateSet::Of({{Attribute::kLight, Interval(100, 600)}});
  PredicateSet none;
  EXPECT_TRUE(wide.CoversSetOf(narrow));
  EXPECT_FALSE(narrow.CoversSetOf(wide));
  EXPECT_TRUE(none.CoversSetOf(wide));   // unconstrained covers everything
  EXPECT_FALSE(wide.CoversSetOf(none));  // but is not covered by a constraint
  EXPECT_TRUE(wide.CoversSetOf(wide));
}

TEST(PredicateSetTest, CoversWithMultipleAttributes) {
  PredicateSet cover = PredicateSet::Of({{Attribute::kLight, Interval(0, 800)}});
  PredicateSet covered = PredicateSet::Of({
      {Attribute::kLight, Interval(100, 600)},
      {Attribute::kTemp, Interval(10, 20)},
  });
  // cover selects a superset: its only constraint is wider, temp free.
  EXPECT_TRUE(cover.CoversSetOf(covered));
  EXPECT_FALSE(covered.CoversSetOf(cover));
}

TEST(PredicateSetTest, IntegrationUnionKeepsOnlyCommonAttributes) {
  PredicateSet a = PredicateSet::Of({
      {Attribute::kLight, Interval(100, 300)},
      {Attribute::kTemp, Interval(10, 20)},
  });
  PredicateSet b = PredicateSet::Of({{Attribute::kLight, Interval(280, 600)}});
  const PredicateSet u = PredicateSet::IntegrationUnion(a, b);
  EXPECT_EQ(u.ConstraintOn(Attribute::kLight), Interval(100, 600));
  EXPECT_FALSE(u.ConstraintOn(Attribute::kTemp).has_value());
}

TEST(PredicateSetTest, IntegrationUnionSelectsSuperset) {
  // Property: any reading matching either input matches the union.
  PredicateSet a = PredicateSet::Of({
      {Attribute::kLight, Interval(100, 300)},
      {Attribute::kTemp, Interval(0, 50)},
  });
  PredicateSet b = PredicateSet::Of({
      {Attribute::kLight, Interval(500, 700)},
  });
  const PredicateSet u = PredicateSet::IntegrationUnion(a, b);
  for (double light : {100.0, 200.0, 300.0, 500.0, 600.0, 700.0}) {
    for (double temp : {0.0, 25.0, 50.0, 80.0}) {
      const Reading r = MakeReading(1, light, temp);
      if (a.Matches(r) || b.Matches(r)) {
        EXPECT_TRUE(u.Matches(r))
            << "light=" << light << " temp=" << temp;
      }
    }
  }
}

TEST(QueryTest, AcquisitionAlwaysProjectsNodeId) {
  const Query q = Query::Acquisition(1, {Attribute::kLight}, {}, 4096);
  EXPECT_EQ(q.kind(), QueryKind::kAcquisition);
  ASSERT_EQ(q.attributes().size(), 2u);
  EXPECT_EQ(q.attributes()[0], Attribute::kNodeId);
  EXPECT_EQ(q.attributes()[1], Attribute::kLight);
}

TEST(QueryTest, ValidationRejectsBadInput) {
  EXPECT_THROW(Query::Acquisition(1, {}, {}, 4096), std::invalid_argument);
  EXPECT_THROW(Query::Acquisition(1, {Attribute::kLight}, {}, 1000),
               std::invalid_argument);
  EXPECT_THROW(Query::Aggregation(1, {}, {}, 4096), std::invalid_argument);
}

TEST(QueryTest, AcquiredAttributesIncludePredicateColumns) {
  PredicateSet preds =
      PredicateSet::Of({{Attribute::kTemp, Interval(10, 20)}});
  const Query q = Query::Acquisition(1, {Attribute::kLight}, preds, 4096);
  const auto acquired = q.AcquiredAttributes();
  EXPECT_NE(std::find(acquired.begin(), acquired.end(), Attribute::kTemp),
            acquired.end());
  EXPECT_NE(std::find(acquired.begin(), acquired.end(), Attribute::kLight),
            acquired.end());
}

TEST(QueryTest, AggregationAcquiredAttributes) {
  PredicateSet preds =
      PredicateSet::Of({{Attribute::kLight, Interval(0, 500)}});
  const Query q = Query::Aggregation(
      2, {AggregateSpec{AggregateOp::kMax, Attribute::kTemp}}, preds, 8192);
  const auto acquired = q.AcquiredAttributes();
  EXPECT_NE(std::find(acquired.begin(), acquired.end(), Attribute::kTemp),
            acquired.end());
  EXPECT_NE(std::find(acquired.begin(), acquired.end(), Attribute::kLight),
            acquired.end());
}

TEST(QueryTest, ResultPayloadBytes) {
  const Query acq =
      Query::Acquisition(1, {Attribute::kLight, Attribute::kTemp}, {}, 4096);
  // nodeid + light + temp, 2 bytes each.
  EXPECT_EQ(acq.ResultPayloadBytes(), 6u);
  const Query agg = Query::Aggregation(
      2,
      {AggregateSpec{AggregateOp::kMax, Attribute::kLight},
       AggregateSpec{AggregateOp::kAvg, Attribute::kTemp}},
      {}, 4096);
  EXPECT_EQ(agg.ResultPayloadBytes(), 6u);  // MAX: 2, AVG: 4
}

TEST(QueryTest, ToSqlParsesBackToAnEqualQuery) {
  std::vector<Query> queries;
  for (const char* name : {"A", "B", "C"}) {
    for (const Query& q : WorkloadByName(name)) queries.push_back(q);
  }
  // Section 4.3's random queries with randomized selectivity: arbitrary
  // bounds, up to two predicates, both query kinds.
  QueryModelParams params;
  params.randomize_selectivity = true;
  params.max_predicates = 2;
  RandomQueryModel model(params, 2007);
  for (QueryId id = 1; id <= 1000; ++id) queries.push_back(model.Next(id));
  // An unsatisfiable predicate keeps an empty range.
  queries.push_back(ParseQuery(
      7, "SELECT light FROM sensors WHERE light > 4294967296 "
         "EPOCH DURATION 4096"));
  ASSERT_TRUE(queries.back().predicates().IsUnsatisfiable());

  std::size_t with_predicates = 0;
  for (const Query& q : queries) {
    const std::string sql = q.ToSql();
    SCOPED_TRACE(sql);
    const Query parsed = ParseQuery(q.id(), sql);
    EXPECT_EQ(parsed.kind(), q.kind());
    EXPECT_EQ(parsed.attributes(), q.attributes());
    EXPECT_EQ(parsed.aggregates(), q.aggregates());
    EXPECT_EQ(parsed.predicates(), q.predicates());
    EXPECT_EQ(parsed.epoch(), q.epoch());
    EXPECT_EQ(parsed.lifetime(), q.lifetime());
    EXPECT_EQ(parsed.ToSql(), sql);
    if (!q.predicates().IsUnconstrained()) ++with_predicates;
  }
  EXPECT_GT(with_predicates, queries.size() / 2);
}

TEST(QueryTest, PropagationPayloadGrowsWithContent) {
  const Query small = Query::Acquisition(1, {Attribute::kLight}, {}, 4096);
  PredicateSet preds =
      PredicateSet::Of({{Attribute::kLight, Interval(100, 600)}});
  const Query big = Query::Acquisition(
      2, {Attribute::kLight, Attribute::kTemp, Attribute::kHumidity}, preds,
      4096);
  EXPECT_LT(PropagationPayloadBytes(small), PropagationPayloadBytes(big));
}

TEST(AggregateTest, NamesRoundTrip) {
  for (AggregateOp op : {AggregateOp::kMax, AggregateOp::kMin,
                         AggregateOp::kSum, AggregateOp::kAvg,
                         AggregateOp::kCount}) {
    EXPECT_EQ(ParseAggregateOp(AggregateOpName(op)), op);
  }
  EXPECT_FALSE(ParseAggregateOp("MEDIAN").has_value());
}

class PartialAggregateTest : public ::testing::TestWithParam<AggregateOp> {};

TEST_P(PartialAggregateTest, MergeEqualsDirectAccumulation) {
  const AggregateSpec spec{GetParam(), Attribute::kLight};
  const std::vector<double> values = {5, 1, 9, 3, 3, 7, 2};
  // Split the values arbitrarily, merge, and compare with a direct fold.
  PartialAggregate direct(spec);
  for (double v : values) direct.Accumulate(v);
  PartialAggregate left(spec), right(spec);
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 2 == 0 ? left : right).Accumulate(values[i]);
  }
  PartialAggregate merged = left;
  merged.Merge(right);
  ASSERT_EQ(merged.count(), direct.count());
  ASSERT_TRUE(merged.Finalize().has_value());
  EXPECT_DOUBLE_EQ(*merged.Finalize(), *direct.Finalize());
}

TEST_P(PartialAggregateTest, IdentityElementIsNeutral) {
  const AggregateSpec spec{GetParam(), Attribute::kLight};
  PartialAggregate value = PartialAggregate::OfValue(spec, 42.0);
  PartialAggregate merged = value;
  merged.Merge(PartialAggregate(spec));  // merge with identity
  EXPECT_EQ(merged.count(), value.count());
  EXPECT_EQ(merged.Finalize(), value.Finalize());
  PartialAggregate identity(spec);
  identity.Merge(value);  // identity merged with value
  EXPECT_EQ(identity.Finalize(), value.Finalize());
}

INSTANTIATE_TEST_SUITE_P(AllOps, PartialAggregateTest,
                         ::testing::Values(AggregateOp::kMax,
                                           AggregateOp::kMin,
                                           AggregateOp::kSum,
                                           AggregateOp::kAvg,
                                           AggregateOp::kCount,
                                           AggregateOp::kVar));

TEST(PartialAggregateTest, VarianceIsExactAcrossArbitrarySplits) {
  const AggregateSpec spec{AggregateOp::kVar, Attribute::kLight};
  const std::vector<double> values = {2, 4, 4, 4, 5, 5, 7, 9};
  // Known population variance of this classic sequence is 4.
  for (std::size_t split = 0; split <= values.size(); ++split) {
    PartialAggregate left(spec), right(spec);
    for (std::size_t i = 0; i < values.size(); ++i) {
      (i < split ? left : right).Accumulate(values[i]);
    }
    left.Merge(right);
    ASSERT_TRUE(left.Finalize().has_value());
    EXPECT_NEAR(*left.Finalize(), 4.0, 1e-9) << "split at " << split;
  }
}

TEST(PartialAggregateTest, VarianceOfConstantIsZero) {
  const AggregateSpec spec{AggregateOp::kVar, Attribute::kTemp};
  PartialAggregate p(spec);
  for (int i = 0; i < 10; ++i) p.Accumulate(42.0);
  EXPECT_NEAR(*p.Finalize(), 0.0, 1e-9);
}

TEST(PartialAggregateTest, EmptySetSemantics) {
  EXPECT_FALSE(PartialAggregate({AggregateOp::kMax, Attribute::kLight})
                   .Finalize()
                   .has_value());
  const auto count =
      PartialAggregate({AggregateOp::kCount, Attribute::kLight}).Finalize();
  ASSERT_TRUE(count.has_value());
  EXPECT_DOUBLE_EQ(*count, 0.0);
}

TEST(PartialAggregateTest, AvgIsExactOverMerges) {
  const AggregateSpec spec{AggregateOp::kAvg, Attribute::kLight};
  PartialAggregate a = PartialAggregate::OfValue(spec, 10.0);
  a.Accumulate(20.0);
  PartialAggregate b = PartialAggregate::OfValue(spec, 40.0);
  a.Merge(b);
  ASSERT_TRUE(a.Finalize().has_value());
  EXPECT_DOUBLE_EQ(*a.Finalize(), (10.0 + 20.0 + 40.0) / 3.0);
}

TEST(PartialAggregateTest, MergeSpecMismatchThrows) {
  PartialAggregate max_light({AggregateOp::kMax, Attribute::kLight});
  PartialAggregate min_light({AggregateOp::kMin, Attribute::kLight});
  EXPECT_THROW(max_light.Merge(min_light), CheckFailure);
}

}  // namespace
}  // namespace ttmqo
