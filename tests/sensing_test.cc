// Unit tests for the sensing layer: attribute catalog, readings, fields.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "sensing/attribute.h"
#include "sensing/field_model.h"
#include "sensing/reading.h"
#include "util/check.h"

namespace ttmqo {
namespace {

TEST(AttributeTest, NamesRoundTrip) {
  for (Attribute attr : kAllAttributes) {
    const auto parsed = ParseAttribute(AttributeName(attr));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, attr);
  }
}

TEST(AttributeTest, ParseIsCaseInsensitive) {
  EXPECT_EQ(ParseAttribute("LIGHT"), Attribute::kLight);
  EXPECT_EQ(ParseAttribute("Temp"), Attribute::kTemp);
  EXPECT_FALSE(ParseAttribute("bogus").has_value());
}

TEST(AttributeTest, RangesAreNonDegenerate) {
  for (Attribute attr : kAllAttributes) {
    const Interval range = AttributeRange(attr);
    EXPECT_FALSE(range.empty());
    EXPECT_GT(range.Length(), 0.0);
    EXPECT_GT(AttributeSizeBytes(attr), 0u);
  }
}

TEST(ReadingTest, SetGetAndNodeIdPrepopulated) {
  Reading r(7, 4096);
  EXPECT_EQ(r.node(), 7);
  EXPECT_EQ(r.time(), 4096);
  EXPECT_TRUE(r.Has(Attribute::kNodeId));
  EXPECT_DOUBLE_EQ(r.GetOrThrow(Attribute::kNodeId), 7.0);
  EXPECT_FALSE(r.Has(Attribute::kLight));
  EXPECT_FALSE(r.Get(Attribute::kLight).has_value());
  r.Set(Attribute::kLight, 321.5);
  EXPECT_DOUBLE_EQ(r.GetOrThrow(Attribute::kLight), 321.5);
  EXPECT_THROW(r.GetOrThrow(Attribute::kTemp), CheckFailure);
}

class FieldModelTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<FieldModel> MakeModel() const {
    switch (GetParam()) {
      case 0:
        return std::make_unique<UniformFieldModel>(11);
      case 1:
        return std::make_unique<CorrelatedFieldModel>(11);
      default:
        return std::make_unique<HotspotFieldModel>(
            11, HotspotFieldModel::Params{});
    }
  }
};

// Purity is the invariant the whole semantic-equivalence story rests on:
// sampling the same (node, attr, time) twice must give the same value.
TEST_P(FieldModelTest, SamplingIsPure) {
  const auto model = MakeModel();
  const Position pos{40.0, 60.0};
  for (Attribute attr : kAllAttributes) {
    for (SimTime t : {0, 2048, 4096, 1'000'000}) {
      EXPECT_DOUBLE_EQ(model->Sample(3, pos, attr, t),
                       model->Sample(3, pos, attr, t));
    }
  }
}

TEST_P(FieldModelTest, ValuesStayWithinAttributeRanges) {
  const auto model = MakeModel();
  for (Attribute attr : kSensedAttributes) {
    const Interval range = AttributeRange(attr);
    for (NodeId node = 0; node < 30; ++node) {
      const Position pos{static_cast<double>(node % 6) * 20.0,
                         static_cast<double>(node / 6) * 20.0};
      for (SimTime t = 0; t < 10 * 2048; t += 2048) {
        const double v = model->Sample(node, pos, attr, t);
        EXPECT_TRUE(range.Contains(v))
            << AttributeName(attr) << " value " << v << " outside "
            << range.ToString();
      }
    }
  }
}

TEST_P(FieldModelTest, NodeIdAttributeIsTheNodeId) {
  const auto model = MakeModel();
  EXPECT_DOUBLE_EQ(model->Sample(5, Position{0, 0}, Attribute::kNodeId, 999),
                   5.0);
}

TEST_P(FieldModelTest, SampleReadingCollectsRequestedAttributes) {
  const auto model = MakeModel();
  const std::vector<Attribute> attrs = {Attribute::kLight, Attribute::kTemp};
  const Reading r = model->SampleReading(4, Position{20, 20}, attrs, 2048);
  EXPECT_TRUE(r.Has(Attribute::kLight));
  EXPECT_TRUE(r.Has(Attribute::kTemp));
  EXPECT_FALSE(r.Has(Attribute::kHumidity));
  EXPECT_EQ(r.node(), 4);
  EXPECT_EQ(r.time(), 2048);
}

INSTANTIATE_TEST_SUITE_P(AllFieldModels, FieldModelTest,
                         ::testing::Values(0, 1, 2));

TEST(UniformFieldModelTest, DifferentSeedsGiveDifferentFields) {
  UniformFieldModel a(1), b(2);
  const Position pos{0, 0};
  int same = 0;
  for (SimTime t = 0; t < 100 * 2048; t += 2048) {
    if (a.Sample(1, pos, Attribute::kLight, t) ==
        b.Sample(1, pos, Attribute::kLight, t)) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(UniformFieldModelTest, ResamplePeriodQuantizesTime) {
  UniformFieldModel model(5, 2048);
  const Position pos{0, 0};
  // Same bucket -> same value; different bucket -> (almost surely) not.
  EXPECT_DOUBLE_EQ(model.Sample(1, pos, Attribute::kLight, 100),
                   model.Sample(1, pos, Attribute::kLight, 2047));
  EXPECT_NE(model.Sample(1, pos, Attribute::kLight, 0),
            model.Sample(1, pos, Attribute::kLight, 2048));
}

TEST(UniformFieldModelTest, RoughlyUniformOverRange) {
  UniformFieldModel model(17);
  const Interval range = AttributeRange(Attribute::kLight);
  int below_mid = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double v = model.Sample(static_cast<NodeId>(i % 50), Position{0, 0},
                                  Attribute::kLight,
                                  static_cast<SimTime>(i) * 2048);
    if (v < range.lo() + range.Length() / 2) ++below_mid;
  }
  EXPECT_NEAR(static_cast<double>(below_mid) / n, 0.5, 0.05);
}

TEST(CorrelatedFieldModelTest, NearbyNodesAreCorrelated) {
  CorrelatedFieldModel model(23);
  // Mean absolute difference between 20 ft apart nodes should be far below
  // the difference between 200 ft apart nodes.
  double near = 0.0, far = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const auto t = static_cast<SimTime>(i) * 2048;
    const double a = model.Sample(1, Position{0, 0}, Attribute::kLight, t);
    const double b = model.Sample(2, Position{20, 0}, Attribute::kLight, t);
    const double c = model.Sample(3, Position{450, 450}, Attribute::kLight, t);
    near += std::fabs(a - b);
    far += std::fabs(a - c);
  }
  EXPECT_LT(near, far);
}

TEST(HotspotFieldModelTest, HotspotElevatesReadings) {
  HotspotFieldModel::Params params;
  params.center = {70, 70};
  params.orbit_radius_feet = 0;  // keep the hotspot stationary
  HotspotFieldModel hotspot(31, params);
  CorrelatedFieldModel base(31);
  // At the hotspot center the value is boosted relative to the background.
  const double inside =
      hotspot.Sample(1, Position{70, 70}, Attribute::kLight, 2048);
  const double background =
      base.Sample(1, Position{70, 70}, Attribute::kLight, 2048);
  EXPECT_GE(inside, background);
  // Far outside the hotspot radius the field is untouched.
  EXPECT_DOUBLE_EQ(
      hotspot.Sample(2, Position{400, 400}, Attribute::kLight, 2048),
      base.Sample(2, Position{400, 400}, Attribute::kLight, 2048));
}

}  // namespace
}  // namespace ttmqo
