// Unit tests for the util layer: intervals, epoch math, RNG, flags, time.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "util/check.h"
#include "util/flags.h"
#include "util/interval.h"
#include "util/mathx.h"
#include "util/rng.h"
#include "util/time.h"

namespace ttmqo {
namespace {

TEST(IntervalTest, DefaultIsEmpty) {
  Interval i;
  EXPECT_TRUE(i.empty());
  EXPECT_EQ(i.Length(), 0.0);
  EXPECT_FALSE(i.Contains(0.0));
}

TEST(IntervalTest, InvertedBoundsNormalizeToEmpty) {
  Interval i(5.0, 1.0);
  EXPECT_TRUE(i.empty());
}

TEST(IntervalTest, ContainsIsInclusive) {
  Interval i(1.0, 2.0);
  EXPECT_TRUE(i.Contains(1.0));
  EXPECT_TRUE(i.Contains(2.0));
  EXPECT_TRUE(i.Contains(1.5));
  EXPECT_FALSE(i.Contains(0.999));
  EXPECT_FALSE(i.Contains(2.001));
}

TEST(IntervalTest, IntersectAndHull) {
  Interval a(100, 300);
  Interval b(280, 600);
  EXPECT_EQ(a.Intersect(b), Interval(280, 300));
  EXPECT_EQ(a.Hull(b), Interval(100, 600));
  EXPECT_TRUE(a.Intersects(b));
}

TEST(IntervalTest, DisjointIntersectIsEmpty) {
  Interval a(0, 1);
  Interval b(2, 3);
  EXPECT_TRUE(a.Intersect(b).empty());
  EXPECT_FALSE(a.Intersects(b));
  EXPECT_EQ(a.Hull(b), Interval(0, 3));
}

TEST(IntervalTest, CoversSemantics) {
  Interval outer(0, 10);
  Interval inner(2, 8);
  EXPECT_TRUE(outer.Covers(inner));
  EXPECT_FALSE(inner.Covers(outer));
  EXPECT_TRUE(outer.Covers(outer));
  EXPECT_TRUE(outer.Covers(Interval()));   // empty is covered by anything
  EXPECT_FALSE(Interval().Covers(outer));  // empty covers nothing non-empty
}

TEST(IntervalTest, HullWithEmptyIsIdentity) {
  Interval a(1, 2);
  EXPECT_EQ(a.Hull(Interval()), a);
  EXPECT_EQ(Interval().Hull(a), a);
}

TEST(IntervalTest, OverlapFraction) {
  Interval a(0, 10);
  EXPECT_DOUBLE_EQ(a.OverlapFraction(Interval(0, 5)), 0.5);
  EXPECT_DOUBLE_EQ(a.OverlapFraction(Interval(-5, 5)), 0.5);
  EXPECT_DOUBLE_EQ(a.OverlapFraction(a), 1.0);
  EXPECT_DOUBLE_EQ(a.OverlapFraction(Interval(20, 30)), 0.0);
  EXPECT_DOUBLE_EQ(a.OverlapFraction(Interval()), 0.0);
}

TEST(MathxTest, GcdAll) {
  const SimDuration values[] = {8192, 12288, 20480};
  EXPECT_EQ(GcdAll(values), 4096);
  const SimDuration one[] = {6144};
  EXPECT_EQ(GcdAll(one), 6144);
}

TEST(MathxTest, GcdAllRejectsEmptyAndNonPositive) {
  EXPECT_THROW(GcdAll(std::span<const SimDuration>()), std::invalid_argument);
  const SimDuration bad[] = {2048, 0};
  EXPECT_THROW(GcdAll(bad), std::invalid_argument);
}

TEST(MathxTest, AlignUp) {
  EXPECT_EQ(AlignUp(0, 2048), 0);
  EXPECT_EQ(AlignUp(1, 2048), 2048);
  EXPECT_EQ(AlignUp(2048, 2048), 2048);
  EXPECT_EQ(AlignUp(2049, 2048), 4096);
}

TEST(MathxTest, Divides) {
  EXPECT_TRUE(Divides(2048, 8192));
  EXPECT_FALSE(Divides(4096, 6144));
  EXPECT_TRUE(Divides(2048, 6144));
  EXPECT_FALSE(Divides(0, 6144));
}

TEST(TimeTest, EpochValidity) {
  EXPECT_TRUE(IsValidEpochDuration(2048));
  EXPECT_TRUE(IsValidEpochDuration(6144));
  EXPECT_FALSE(IsValidEpochDuration(0));
  EXPECT_FALSE(IsValidEpochDuration(-2048));
  EXPECT_FALSE(IsValidEpochDuration(1000));
}

TEST(TimeTest, Format) {
  EXPECT_EQ(FormatSimTime(12345), "12.345s");
  EXPECT_EQ(FormatSimTime(0), "0.000s");
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1'000'000), b.UniformInt(0, 1'000'000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1'000'000) == b.UniformInt(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, ForkIsIndependentOfConsumption) {
  Rng a(7);
  const Rng fork_before = a.Fork(1);
  (void)a.Uniform(0, 1);
  const Rng fork_after = a.Fork(1);
  Rng f1 = fork_before, f2 = fork_after;
  EXPECT_EQ(f1.UniformInt(0, 1'000'000), f2.UniformInt(0, 1'000'000));
}

TEST(RngTest, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(40.0);
  EXPECT_NEAR(sum / n, 40.0, 1.5);
}

TEST(RngTest, InvalidArgsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.Uniform(2, 1), std::invalid_argument);
  EXPECT_THROW(rng.Exponential(0), std::invalid_argument);
  EXPECT_THROW(rng.Bernoulli(1.5), std::invalid_argument);
  EXPECT_THROW(rng.Index(0), std::invalid_argument);
}

TEST(FlagsTest, ParsesBothSyntaxes) {
  const char* argv[] = {"prog", "pos", "--a=1", "--b", "2", "--c"};
  const Flags flags = Flags::Parse(6, argv);
  EXPECT_EQ(flags.GetInt("a", 0), 1);
  EXPECT_EQ(flags.GetInt("b", 0), 2);
  EXPECT_TRUE(flags.GetBool("c", false));  // trailing bare flag is boolean
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos");
}

TEST(FlagsTest, FallbacksAndErrors) {
  const char* argv[] = {"prog", "--x=abc"};
  const Flags flags = Flags::Parse(2, argv);
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_EQ(flags.GetString("x", ""), "abc");
  EXPECT_THROW(flags.GetInt("x", 0), std::invalid_argument);
  EXPECT_THROW(flags.GetBool("x", false), std::invalid_argument);
}

TEST(FlagsTest, TrailingGarbageIsRejected) {
  const char* argv[] = {"prog", "--side=4x", "--collisions=0.02abc",
                        "--duration-ms=5e5", "--ok=12", "--rate=0.5"};
  const Flags flags = Flags::Parse(6, argv);
  EXPECT_THROW(flags.GetInt("side", 0), std::invalid_argument);
  EXPECT_THROW(flags.GetDouble("collisions", 0.0), std::invalid_argument);
  // An integer flag does not take scientific notation.
  try {
    (void)flags.GetInt("duration-ms", 0);
    ADD_FAILURE() << "5e5 parsed as an integer";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "flag --duration-ms expects an integer, got '5e5'");
  }
  EXPECT_EQ(flags.GetInt("ok", 0), 12);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.5);
}

TEST(FlagsTest, WholeStringParsers) {
  EXPECT_EQ(ParseWholeInt("42"), 42);
  EXPECT_EQ(ParseWholeInt("-7"), -7);
  EXPECT_EQ(ParseWholeInt("3x"), std::nullopt);
  EXPECT_EQ(ParseWholeInt("5000ms"), std::nullopt);
  EXPECT_EQ(ParseWholeInt("5e5"), std::nullopt);
  EXPECT_EQ(ParseWholeInt(""), std::nullopt);
  EXPECT_EQ(ParseWholeInt("24576junk"), std::nullopt);
  // A value outside int64 is rejected like any other non-integer.
  EXPECT_EQ(ParseWholeInt("99999999999999999999"), std::nullopt);
  EXPECT_EQ(ParseWholeNumber("0.25"), 0.25);
  EXPECT_EQ(ParseWholeNumber("1e3"), 1000.0);
  EXPECT_EQ(ParseWholeNumber("0.02abc"), std::nullopt);
  EXPECT_EQ(ParseWholeNumber(""), std::nullopt);
  EXPECT_EQ(ParseWholeNumber("1e999"), std::nullopt);
  EXPECT_EQ(IntOrThrow("sweep spec: seeds", "4"), 4);
  try {
    (void)IntOrThrow("sweep spec: seeds", "4x");
    ADD_FAILURE() << "4x parsed as an integer";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "sweep spec: seeds expects an integer, got '4x'");
  }
  try {
    (void)NumberOrThrow("flag --alpha", "x");
    ADD_FAILURE() << "x parsed as a number";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --alpha expects a number, got 'x'");
  }
}

TEST(FlagsTest, UnreadFlagsDetected) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  const Flags flags = Flags::Parse(3, argv);
  (void)flags.GetInt("used", 0);
  const auto unread = flags.UnreadFlags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "typo");
}

TEST(CheckTest, ThrowsWithMessage) {
  EXPECT_THROW(Check(false, "boom"), CheckFailure);
  EXPECT_THROW(CheckArg(false, "bad arg"), std::invalid_argument);
  EXPECT_NO_THROW(Check(true, "fine"));
}

}  // namespace
}  // namespace ttmqo
