// Unit tests for the uniform-prior selectivity of Eq. 1.
#include <gtest/gtest.h>

#include "stats/selectivity.h"

namespace ttmqo {
namespace {

PredicateSet On(Attribute attr, double lo, double hi) {
  return PredicateSet::Of({{attr, Interval(lo, hi)}});
}

TEST(UniformSelectivityTest, RangeFractionsOfTheLightDomain) {
  // light's physical range is [0, 1000].
  EXPECT_DOUBLE_EQ(UniformSelectivity(On(Attribute::kLight, 0, 500)), 0.5);
  EXPECT_DOUBLE_EQ(UniformSelectivity(On(Attribute::kLight, 250, 500)), 0.25);
}

TEST(UniformSelectivityTest, RangeFractionsOfTheTempDomain) {
  // temp's physical range is [0, 100].
  EXPECT_DOUBLE_EQ(UniformSelectivity(On(Attribute::kTemp, 0, 50)), 0.5);
  EXPECT_DOUBLE_EQ(UniformSelectivity(On(Attribute::kTemp, 0, 25)), 0.25);
  EXPECT_DOUBLE_EQ(UniformSelectivity(On(Attribute::kTemp, 0, 100)), 1.0);
  EXPECT_EQ(UniformSelectivity(On(Attribute::kTemp, 200, 300)), 0.0);
}

TEST(UniformSelectivityTest, ConjunctionsMultiply) {
  const PredicateSet preds = PredicateSet::Of({
      {Attribute::kLight, Interval(0, 500)},  // 0.5
      {Attribute::kTemp, Interval(0, 25)},    // 0.25
  });
  EXPECT_DOUBLE_EQ(UniformSelectivity(preds), 0.125);
  // The factors multiply in attribute order, each overlap / domain: the
  // exact operation sequence every Eq. 1-3 cost is pinned to.
  const PredicateSet three = PredicateSet::Of({
      {Attribute::kVoltage, Interval(1, 2)},
      {Attribute::kLight, Interval(100, 700)},
      {Attribute::kTemp, Interval(10, 40)},
  });
  EXPECT_EQ(UniformSelectivity(three),
            1.0 * (600.0 / 1000.0) * (30.0 / 100.0) * (1.0 / 5.0));
}

TEST(UniformSelectivityTest, UnconstrainedPredicateIsSelectivityOne) {
  EXPECT_DOUBLE_EQ(UniformSelectivity(PredicateSet()), 1.0);
  // A constraint spanning the whole range is vacuous and dropped.
  EXPECT_DOUBLE_EQ(UniformSelectivity(On(Attribute::kLight, 0, 1000)), 1.0);
}

TEST(UniformSelectivityTest, RangesBeyondTheDomainCountOnlyTheirOverlap) {
  EXPECT_DOUBLE_EQ(UniformSelectivity(On(Attribute::kLight, 500, 2000)), 0.5);
  EXPECT_DOUBLE_EQ(UniformSelectivity(On(Attribute::kLight, -500, 250)), 0.25);
  EXPECT_EQ(UniformSelectivity(On(Attribute::kLight, 2000, 3000)), 0.0);
}

TEST(UniformSelectivityTest, UnsatisfiableConjunctionIsSelectivityZero) {
  // Disjoint constraints on one attribute intersect to the empty interval.
  const PredicateSet none = PredicateSet::Of({
      {Attribute::kLight, Interval(0, 100)},
      {Attribute::kLight, Interval(200, 300)},
      {Attribute::kTemp, Interval(0, 50)},
  });
  ASSERT_TRUE(none.IsUnsatisfiable());
  EXPECT_EQ(UniformSelectivity(none), 0.0);
}

}  // namespace
}  // namespace ttmqo
