// Unit tests for the util layer: intervals, epoch math, RNG, flags, time.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/flags.h"
#include "util/inline_list.h"
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

TEST(RngTest, ForkSeedMatchesForkingASeededParent) {
  // ForkSeed derives a child without seeding the parent's engine; its
  // stream must equal Rng(seed).Fork(salt)'s draw for draw.  The pinned
  // values keep the derivation itself fixed: every forked stream (ARQ
  // jitter, sweep replicates) and the goldens depend on it.
  EXPECT_EQ(Rng::ForkSeed(42, (std::uint64_t{3} << 32) | 1),
            0x1126d0f65359eb49ULL);
  EXPECT_EQ(Rng::ForkSeed(0, 0), 0xa706dd2f4d197e6fULL);
  const std::uint64_t seeds[] = {0, 1, 7, 42, 0x9e3779b97f4a7c15ULL,
                                 ~std::uint64_t{0}};
  const std::uint64_t salts[] = {0, 1, 3, (std::uint64_t{7} << 32) | 3,
                                 (std::uint64_t{65535} << 32) | 0xffffffffULL,
                                 ~std::uint64_t{0}};
  for (const std::uint64_t seed : seeds) {
    for (const std::uint64_t salt : salts) {
      Rng direct(Rng::ForkSeed(seed, salt));
      Rng forked = Rng(seed).Fork(salt);
      EXPECT_EQ(direct.seed(), forked.seed());
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(direct.UniformInt(0, 1 << 30),
                  forked.UniformInt(0, 1 << 30))
            << "seed " << seed << " salt " << salt << " draw " << i;
      }
    }
  }
}

TEST(RngTest, FirstUniformIntsMatchTheEngine) {
  // FirstUniformInts computes the engine's first eight raw outputs from the
  // seeded words they read and continues from a full engine past them; its
  // values must equal a seeded Rng's draw for draw.  Over [-2^62, 2^62] the
  // distribution rejects about half of its raw outputs, so for every seed
  // here 16 draws read past the eighth and the fallback runs.
  constexpr std::int64_t kWide = std::int64_t{1} << 62;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const std::uint64_t seed = i * 0x9e3779b97f4a7c15ULL + (i & 7);
    std::array<std::int64_t, 4> jitter;
    Rng::FirstUniformInts(seed, 0, 32, jitter);
    Rng narrow(seed);
    for (std::size_t k = 0; k < jitter.size(); ++k) {
      ASSERT_EQ(jitter[k], narrow.UniformInt(0, 32))
          << "seed " << seed << " draw " << k;
    }
    std::array<std::int64_t, 16> wide;
    Rng::FirstUniformInts(seed, -kWide, kWide, wide);
    Rng full(seed);
    for (std::size_t k = 0; k < wide.size(); ++k) {
      ASSERT_EQ(wide[k], full.UniformInt(-kWide, kWide))
          << "seed " << seed << " draw " << k;
    }
  }
  std::array<std::int64_t, 1> one;
  EXPECT_THROW(Rng::FirstUniformInts(1, 5, 4, one), std::invalid_argument);
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

TEST(InlineListTest, SpillsPastItsInlineCapacity) {
  InlineList<int, 2> list{1, 2};
  const int* inline_data = list.data();
  list.push_back(list[0]);  // spills, from an element of the list itself
  list.push_back(3);
  EXPECT_NE(list.data(), inline_data);
  EXPECT_EQ(std::vector<int>(list.begin(), list.end()),
            (std::vector<int>{1, 2, 1, 3}));
  // Copies and moves keep the contents; a moved-from list is empty.
  InlineList<int, 2> copy = list;
  InlineList<int, 2> moved = std::move(list);
  EXPECT_TRUE(list.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy, moved);
  // Erasing a range compacts, clear keeps nothing, assign refills.
  moved.erase(moved.begin() + 1, moved.begin() + 3);
  EXPECT_EQ(moved, (InlineList<int, 2>{1, 3}));
  moved.clear();
  EXPECT_TRUE(moved.empty());
  moved.assign(copy.begin(), copy.begin() + 1);
  EXPECT_EQ(moved, (InlineList<int, 2>{1}));
}

TEST(InlineListTest, HoldsNonTrivialElements) {
  InlineList<std::string, 1> list;
  list.emplace_back(std::size_t{100}, 'a');
  list.emplace_back("b");
  InlineList<std::string, 1> other;
  other = list;
  list = std::move(other);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], std::string(std::size_t{100}, 'a'));
  EXPECT_EQ(list[1], "b");
}

TEST(InlineListTest, ComparesLikeAVector) {
  const std::vector<std::vector<int>> lists = {
      {}, {1}, {1, 2}, {1, 2, 3}, {1, 3}, {2}, {2, 1, 1}};
  for (const auto& a : lists) {
    for (const auto& b : lists) {
      const InlineList<int, 2> x(a.begin(), a.end());
      const InlineList<int, 2> y(b.begin(), b.end());
      EXPECT_EQ(x < y, a < b);
      EXPECT_EQ(x == y, a == b);
    }
  }
}

TEST(CheckTest, ThrowsWithMessage) {
  EXPECT_THROW(Check(false, "boom"), CheckFailure);
  EXPECT_THROW(CheckArg(false, "bad arg"), std::invalid_argument);
  EXPECT_NO_THROW(Check(true, "fine"));
}

}  // namespace
}  // namespace ttmqo
