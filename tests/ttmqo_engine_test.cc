// Tests of the TtmqoEngine facade: mode wiring, user-level result
// delivery, dynamic insertion/termination through both tiers.
#include <gtest/gtest.h>

#include "core/ttmqo_engine.h"
#include "query/parser.h"
#include "test_helpers.h"

namespace ttmqo {
namespace {

using ::ttmqo::testing::FillOracle;

class TtmqoEngineTest : public ::testing::TestWithParam<OptimizationMode> {
 protected:
  TtmqoEngineTest()
      : topology_(Topology::Grid(4)),
        network_(topology_, RadioParams{}, ChannelParams{}, 42),
        field_(7) {}

  TtmqoEngine MakeEngine() {
    TtmqoOptions options;
    options.mode = GetParam();
    return TtmqoEngine(network_, field_, &log_, options);
  }

  Topology topology_;
  Network network_;
  UniformFieldModel field_;
  ResultLog log_;
};

TEST_P(TtmqoEngineTest, SingleQueryMatchesOracleInEveryMode) {
  TtmqoEngine engine = MakeEngine();
  const Query q = ParseQuery(
      1, "SELECT light WHERE light > 250 EPOCH DURATION 4096");
  engine.SubmitQuery(q);
  network_.sim().RunUntil(8 * 4096);
  ResultLog oracle;
  FillOracle(oracle, q, 8 * 4096, field_, topology_);
  const auto diff = CompareResultLogs(oracle, log_, {q});
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_P(TtmqoEngineTest, OverlappingQueriesBothAnswered) {
  TtmqoEngine engine = MakeEngine();
  const Query a =
      ParseQuery(1, "SELECT light WHERE light > 200 EPOCH DURATION 4096");
  const Query b =
      ParseQuery(2, "SELECT light WHERE light > 400 EPOCH DURATION 8192");
  engine.SubmitQuery(a);
  engine.SubmitQuery(b);
  network_.sim().RunUntil(8 * 8192);
  ResultLog oracle;
  FillOracle(oracle, a, 8 * 8192, field_, topology_);
  FillOracle(oracle, b, 8 * 8192, field_, topology_);
  const auto diff = CompareResultLogs(oracle, log_, {a, b});
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_P(TtmqoEngineTest, LateArrivalStartsAtItsOwnFirstEpoch) {
  TtmqoEngine engine = MakeEngine();
  engine.SubmitQuery(
      ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  network_.sim().ScheduleAt(3 * 4096 + 50, [&] {
    engine.SubmitQuery(
        ParseQuery(2, "SELECT light WHERE light > 100 EPOCH DURATION 4096"));
  });
  network_.sim().RunUntil(8 * 4096);
  // Query 2 must not receive answers for epochs before its submission —
  // even when it is covered by the already-running query 1.
  EXPECT_EQ(log_.Find(2, 2 * 4096), nullptr);
  EXPECT_EQ(log_.Find(2, 3 * 4096), nullptr);
  EXPECT_NE(log_.Find(2, 5 * 4096), nullptr);
}

TEST_P(TtmqoEngineTest, TerminationStopsUserResults) {
  TtmqoEngine engine = MakeEngine();
  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  engine.SubmitQuery(
      ParseQuery(2, "SELECT light WHERE light > 300 EPOCH DURATION 4096"));
  network_.sim().ScheduleAt(4 * 4096 + 100, [&] { engine.TerminateQuery(2); });
  network_.sim().RunUntil(10 * 4096);
  // Query 1 keeps flowing; query 2 stops after its termination.
  EXPECT_NE(log_.Find(1, 8 * 4096), nullptr);
  EXPECT_EQ(log_.Find(2, 6 * 4096), nullptr);
  EXPECT_NE(log_.Find(2, 3 * 4096), nullptr);
  EXPECT_EQ(engine.NumUserQueries(), 1u);
}

TEST_P(TtmqoEngineTest, MembersAreAnsweredOnlyAtTheirOwnEpochs) {
  TtmqoEngine engine = MakeEngine();
  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  engine.SubmitQuery(
      ParseQuery(2, "SELECT light WHERE light > 300 EPOCH DURATION 8192"));
  network_.sim().RunUntil(8 * 4096);
  // Under rewriting both ride one synthetic query at the 4096 ms GCD, which
  // also closes the epochs the 8192 ms member does not have.
  for (SimTime epoch = 1; epoch <= 6; ++epoch) {
    EXPECT_NE(log_.Find(1, epoch * 4096), nullptr) << epoch;
  }
  EXPECT_NE(log_.Find(2, 2 * 4096), nullptr);
  EXPECT_NE(log_.Find(2, 4 * 4096), nullptr);
  EXPECT_EQ(log_.Find(2, 3 * 4096), nullptr);
  for (const EpochResult* answer : log_.ResultsFor(2)) {
    EXPECT_EQ(answer->epoch_time % 8192, 0);
  }
}

TEST_P(TtmqoEngineTest, TerminationBeforeADeferredDeliveryDropsIt) {
  TtmqoEngine engine = MakeEngine();
  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  engine.SubmitQuery(
      ParseQuery(2, "SELECT light WHERE light > 300 EPOCH DURATION 8192"));
  if (engine.optimizer() != nullptr) {
    // Both users ride one synthetic query at the 4096 ms GCD.
    EXPECT_EQ(engine.NumNetworkQueries(), 1u);
  }
  // Under rewriting, the synthetic epoch at 8192 closes at 12288, where
  // query 1's answer is delivered at once and query 2's is deferred to
  // its own delivery time, 16384.  Query 2 ends in between.
  network_.sim().ScheduleAt(3 * 4096 + 100, [&] { engine.TerminateQuery(2); });
  network_.sim().RunUntil(10 * 4096);
  EXPECT_TRUE(log_.ResultsFor(2).empty());
  for (SimTime epoch = 1; epoch <= 8; ++epoch) {
    EXPECT_NE(log_.Find(1, epoch * 4096), nullptr) << epoch;
  }
}

TEST_P(TtmqoEngineTest, DuplicateAndUnknownIdsRejected) {
  TtmqoEngine engine = MakeEngine();
  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  EXPECT_THROW(
      engine.SubmitQuery(ParseQuery(1, "SELECT temp EPOCH DURATION 4096")),
      std::invalid_argument);
  EXPECT_THROW(engine.TerminateQuery(99), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, TtmqoEngineTest,
    ::testing::Values(OptimizationMode::kBaseline,
                      OptimizationMode::kBaseStationOnly,
                      OptimizationMode::kInNetworkOnly,
                      OptimizationMode::kTwoTier),
    [](const ::testing::TestParamInfo<OptimizationMode>& param_info) {
      switch (param_info.param) {
        case OptimizationMode::kBaseline:
          return "Baseline";
        case OptimizationMode::kBaseStationOnly:
          return "BsOnly";
        case OptimizationMode::kInNetworkOnly:
          return "InNetOnly";
        default:
          return "TwoTier";
      }
    });

TEST(OptimizationModeTest, ShortNamesParseBackAndNothingElseDoes) {
  const std::pair<const char*, OptimizationMode> names[] = {
      {"baseline", OptimizationMode::kBaseline},
      {"bs", OptimizationMode::kBaseStationOnly},
      {"innet", OptimizationMode::kInNetworkOnly},
      {"ttmqo", OptimizationMode::kTwoTier},
  };
  for (const auto& [name, mode] : names) {
    EXPECT_EQ(ParseOptimizationMode(name), mode) << name;
    EXPECT_EQ(ShortModeName(mode), name);
  }
  // Display names, other cases and the empty string are not mode names.
  for (const char* name : {"bs-only", "innet-only", "TTMQO", ""}) {
    EXPECT_EQ(ParseOptimizationMode(name), std::nullopt) << name;
  }
}

TEST(TtmqoEngineModeTest, RewritingModesExposeTheOptimizer) {
  const Topology topology = Topology::Grid(4);
  UniformFieldModel field(1);
  for (OptimizationMode mode :
       {OptimizationMode::kBaseline, OptimizationMode::kInNetworkOnly}) {
    Network network(topology, RadioParams{}, ChannelParams{}, 1);
    TtmqoOptions options;
    options.mode = mode;
    TtmqoEngine engine(network, field, nullptr, options);
    EXPECT_EQ(engine.optimizer(), nullptr);
    EXPECT_DOUBLE_EQ(engine.BenefitRatio(), 0.0);
  }
  for (OptimizationMode mode : {OptimizationMode::kBaseStationOnly,
                                OptimizationMode::kTwoTier}) {
    Network network(topology, RadioParams{}, ChannelParams{}, 1);
    TtmqoOptions options;
    options.mode = mode;
    TtmqoEngine engine(network, field, nullptr, options);
    EXPECT_NE(engine.optimizer(), nullptr);
  }
}

TEST(TtmqoEngineModeTest, CoveredQueryCausesNoNetworkTraffic) {
  const Topology topology = Topology::Grid(4);
  UniformFieldModel field(1);
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  ResultLog log;
  TtmqoOptions options;
  options.mode = OptimizationMode::kTwoTier;
  TtmqoEngine engine(network, field, &log, options);
  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  network.sim().RunUntil(2 * 4096);
  const auto prop_before =
      network.ledger().TotalSent(MessageClass::kQueryPropagation);
  // Covered by the running query: no new flood, no abort.
  engine.SubmitQuery(
      ParseQuery(2, "SELECT light WHERE light > 500 EPOCH DURATION 8192"));
  network.sim().RunUntil(4 * 4096);
  EXPECT_EQ(network.ledger().TotalSent(MessageClass::kQueryPropagation),
            prop_before);
  EXPECT_EQ(network.ledger().TotalSent(MessageClass::kQueryAbort), 0u);
  EXPECT_EQ(engine.NumNetworkQueries(), 1u);
  EXPECT_EQ(engine.NumUserQueries(), 2u);
  EXPECT_GT(engine.BenefitRatio(), 0.0);
}

TEST(TtmqoEngineModeTest, BenefitRatioGrowsWithSimilarQueries) {
  const Topology topology = Topology::Grid(4);
  UniformFieldModel field(1);
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  TtmqoOptions options;
  options.mode = OptimizationMode::kTwoTier;
  TtmqoEngine engine(network, field, nullptr, options);
  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  const double before = engine.BenefitRatio();
  for (QueryId i = 2; i <= 6; ++i) {
    engine.SubmitQuery(ParseQuery(
        i, "SELECT light WHERE light > 300 EPOCH DURATION 8192"));
  }
  EXPECT_GT(engine.BenefitRatio(), before);
  EXPECT_EQ(engine.NumNetworkQueries(), 1u);
}

TEST(TtmqoEngineModeTest, SinkMustNotEndQueriesFromOnResult) {
  // Answers reach the sink while the engine walks a synthetic query's
  // members, so a sink that ends a query there is refused.
  class EndingSink final : public ResultSink {
   public:
    void OnResult(EpochResult) override { engine->TerminateQuery(2); }
    TtmqoEngine* engine = nullptr;
  };
  const Topology topology = Topology::Grid(4);
  UniformFieldModel field(1);
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  EndingSink sink;
  TtmqoEngine engine(network, field, &sink);
  sink.engine = &engine;
  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  engine.SubmitQuery(
      ParseQuery(2, "SELECT light WHERE light > 300 EPOCH DURATION 4096"));
  EXPECT_THROW(network.sim().RunUntil(4 * 4096), std::invalid_argument);
}

}  // namespace
}  // namespace ttmqo

namespace lifetime_tests {
using namespace ttmqo;

TEST(LifetimeTest, ForClauseSelfTerminates) {
  const Topology topology = Topology::Grid(4);
  UniformFieldModel field(1);
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  ResultLog log;
  TtmqoOptions options;
  options.mode = OptimizationMode::kTwoTier;
  TtmqoEngine engine(network, field, &log, options);
  engine.SubmitQuery(
      ParseQuery(1, "SELECT light EPOCH DURATION 4096 FOR 20480"));
  engine.SubmitQuery(ParseQuery(2, "SELECT temp EPOCH DURATION 4096"));
  network.sim().RunUntil(12 * 4096);
  // Query 1 ran for its lifetime; query 2 keeps running.  (The epoch whose
  // close coincides with the lifetime boundary is suppressed: the
  // termination event was scheduled first and wins the tie.)
  EXPECT_EQ(engine.NumUserQueries(), 1u);
  EXPECT_NE(log.Find(1, 3 * 4096), nullptr);
  EXPECT_EQ(log.Find(1, 5 * 4096), nullptr);
  EXPECT_EQ(log.Find(1, 6 * 4096), nullptr);
  EXPECT_NE(log.Find(2, 10 * 4096), nullptr);
}

TEST(LifetimeTest, ManualTerminationBeforeLifetimeIsSafe) {
  const Topology topology = Topology::Grid(4);
  UniformFieldModel field(1);
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  ResultLog log;
  TtmqoOptions options;
  options.mode = OptimizationMode::kBaseline;
  TtmqoEngine engine(network, field, &log, options);
  engine.SubmitQuery(
      ParseQuery(1, "SELECT light EPOCH DURATION 4096 FOR 40960"));
  network.sim().ScheduleAt(4096 + 10, [&] { engine.TerminateQuery(1); });
  // The auto-termination event fires later and must be a no-op.
  network.sim().RunUntil(12 * 4096);
  EXPECT_EQ(engine.NumUserQueries(), 0u);
}

}  // namespace lifetime_tests
