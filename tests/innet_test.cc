// End-to-end tests of the in-network (tier 2) engine.
#include <gtest/gtest.h>

#include "core/innet/innet_engine.h"
#include "query/parser.h"
#include "test_helpers.h"
#include "tinydb/tinydb_engine.h"

namespace ttmqo {
namespace {

using ::ttmqo::testing::FillOracle;

class InNetEngineTest : public ::testing::Test {
 protected:
  InNetEngineTest()
      : topology_(Topology::Grid(4)),
        network_(topology_, RadioParams{}, ChannelParams{}, 42),
        field_(7) {}

  void RunWith(const std::vector<Query>& queries, SimTime until,
               InNetOptions options = {}) {
    InNetworkEngine engine(network_, field_, &log_, options);
    for (const Query& q : queries) engine.SubmitQuery(q);
    network_.sim().RunUntil(until);
  }

  // Hands `to` the row of `source` for (`query`, `epoch`) from the neighbor
  // `from`, shaped exactly like a child's packed slot transmission.
  void SendRow(NodeId from, NodeId to, QueryId query, SimTime epoch,
               NodeId source) {
    auto payload = std::make_shared<SharedRowPayload>();
    payload->epoch_time = epoch;
    RowEntry entry;
    entry.row = Reading(source, epoch);
    entry.row.Set(Attribute::kLight, 42.0);
    entry.queries = {query};
    payload->entries.push_back(std::move(entry));
    if (source == from) payload->own_row = 0;
    payload->dest_queries[to] = {query};
    Message msg;
    msg.cls = MessageClass::kResult;
    msg.mode = AddressMode::kUnicast;
    msg.sender = from;
    msg.destinations = {to};
    msg.payload_bytes = SharedRowBytes(*payload);
    msg.payload = std::move(payload);
    if (network_.IsAsleep(from)) network_.SetAsleep(from, false);
    network_.Send(std::move(msg));
  }

  std::uint64_t ResultsSentBy(NodeId node) const {
    return network_.ledger().StatsOf(node).sent_by_class[static_cast<
        std::size_t>(MessageClass::kResult)];
  }

  Topology topology_;
  Network network_;
  UniformFieldModel field_;
  ResultLog log_;
};

TEST_F(InNetEngineTest, AcquisitionMatchesOracle) {
  const Query q =
      ParseQuery(1, "SELECT light WHERE light > 300 EPOCH DURATION 4096");
  RunWith({q}, 10 * 4096);
  ResultLog oracle;
  FillOracle(oracle, q, 10 * 4096, field_, topology_);
  EXPECT_GT(log_.size(), 0u);
  const auto diff = CompareResultLogs(oracle, log_, {q});
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_F(InNetEngineTest, AggregationMatchesOracle) {
  const Query q = ParseQuery(
      2, "SELECT MAX(light), AVG(temp) EPOCH DURATION 4096");
  RunWith({q}, 10 * 4096);
  ResultLog oracle;
  FillOracle(oracle, q, 10 * 4096, field_, topology_);
  const auto diff = CompareResultLogs(oracle, log_, {q});
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_F(InNetEngineTest, ManyConcurrentQueriesAllMatchOracle) {
  const std::vector<Query> queries = {
      ParseQuery(1, "SELECT light WHERE light > 200 EPOCH DURATION 4096"),
      ParseQuery(2, "SELECT light, temp WHERE light < 700 EPOCH DURATION "
                    "8192"),
      ParseQuery(3, "SELECT MAX(light) EPOCH DURATION 4096"),
      ParseQuery(4, "SELECT MIN(temp) WHERE temp > 20 EPOCH DURATION 6144"),
      ParseQuery(5, "SELECT SUM(light) WHERE light > 500 EPOCH DURATION "
                    "12288"),
  };
  const SimTime until = 6 * 12288;
  RunWith(queries, until);
  ResultLog oracle;
  for (const Query& q : queries) {
    FillOracle(oracle, q, until, field_, topology_);
  }
  const auto diff = CompareResultLogs(oracle, log_, queries, 1e-6);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_F(InNetEngineTest, SharedMessagesBeatBaselineTraffic) {
  // Eight identical full-selectivity acquisition queries: tier 2 should
  // send roughly one shared message where the baseline sends eight.
  std::vector<Query> queries;
  for (QueryId i = 1; i <= 8; ++i) {
    queries.push_back(ParseQuery(i, "SELECT light EPOCH DURATION 4096"));
  }
  RunWith(queries, 8 * 4096);
  const double innet_ms = network_.ledger().TotalTransmitMs();

  Network baseline_net(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog baseline_log;
  TinyDbEngine baseline(baseline_net, field_, &baseline_log);
  for (const Query& q : queries) baseline.SubmitQuery(q);
  baseline_net.sim().RunUntil(8 * 4096);
  const double baseline_ms = baseline_net.ledger().TotalTransmitMs();

  EXPECT_LT(innet_ms, 0.4 * baseline_ms)
      << "shared messages should cut transmit time by well over half";
}

TEST_F(InNetEngineTest, EpochPhaseAlignmentSharesNonDividingEpochs) {
  // 4096 vs 6144: not mergeable at tier 1, but tier 2 shares every
  // coinciding tick (12288, 24576, ...).
  const std::vector<Query> queries = {
      ParseQuery(1, "SELECT light EPOCH DURATION 4096"),
      ParseQuery(2, "SELECT light EPOCH DURATION 6144"),
  };
  RunWith(queries, 12 * 4096);
  const auto shared_msgs = network_.ledger().TotalSent(MessageClass::kResult);

  Network baseline_net(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog baseline_log;
  TinyDbEngine baseline(baseline_net, field_, &baseline_log);
  for (const Query& q : queries) baseline.SubmitQuery(q);
  baseline_net.sim().RunUntil(12 * 4096);
  const auto baseline_msgs =
      baseline_net.ledger().TotalSent(MessageClass::kResult);
  EXPECT_LT(shared_msgs, baseline_msgs);
}

TEST_F(InNetEngineTest, CorrectWithSleepDisabledAndEnabled) {
  const Query q =
      ParseQuery(1, "SELECT light WHERE light > 600 EPOCH DURATION 4096");
  ResultLog oracle;
  FillOracle(oracle, q, 8 * 4096, field_, topology_);

  for (bool sleep : {false, true}) {
    Network net(topology_, RadioParams{}, ChannelParams{}, 42);
    ResultLog log;
    InNetOptions options;
    options.enable_sleep = sleep;
    InNetworkEngine engine(net, field_, &log, options);
    engine.SubmitQuery(q);
    net.sim().RunUntil(8 * 4096);
    const auto diff = CompareResultLogs(oracle, log, {q});
    EXPECT_FALSE(diff.has_value()) << "sleep=" << sleep << ": " << *diff;
  }
}

TEST_F(InNetEngineTest, SleepModeAccumulatesSleepTime) {
  // A very selective query leaves most nodes idle: they should sleep.
  const Query q =
      ParseQuery(1, "SELECT light WHERE light > 990 EPOCH DURATION 8192");
  InNetOptions options;
  options.enable_sleep = true;
  RunWith({q}, 10 * 8192, options);
  double total_sleep = 0.0;
  for (NodeId n = 1; n < topology_.size(); ++n) {
    total_sleep += network_.ledger().StatsOf(n).sleep_ms;
  }
  EXPECT_GT(total_sleep, 0.0);
}

TEST_F(InNetEngineTest, AblationFlagsStillProduceCorrectResults) {
  const std::vector<Query> queries = {
      ParseQuery(1, "SELECT light WHERE light > 300 EPOCH DURATION 4096"),
      ParseQuery(2, "SELECT MAX(light) EPOCH DURATION 8192"),
  };
  ResultLog oracle;
  for (const Query& q : queries) {
    FillOracle(oracle, q, 8 * 4096, field_, topology_);
  }
  for (bool dag : {false, true}) {
    for (bool shared : {false, true}) {
      Network net(topology_, RadioParams{}, ChannelParams{}, 42);
      ResultLog log;
      InNetOptions options;
      options.query_aware_routing = dag;
      options.shared_messages = shared;
      InNetworkEngine engine(net, field_, &log, options);
      for (const Query& q : queries) engine.SubmitQuery(q);
      net.sim().RunUntil(8 * 4096);
      const auto diff = CompareResultLogs(oracle, log, queries, 1e-6);
      EXPECT_FALSE(diff.has_value())
          << "dag=" << dag << " shared=" << shared << ": " << *diff;
    }
  }
}

TEST_F(InNetEngineTest, TerminationStopsTraffic) {
  const Query q = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  InNetworkEngine engine(network_, field_, &log_);
  engine.SubmitQuery(q);
  network_.sim().ScheduleAt(4 * 4096 + 100, [&] { engine.TerminateQuery(1); });
  network_.sim().RunUntil(6 * 4096);
  const auto msgs_at_kill = network_.ledger().TotalSent(MessageClass::kResult);
  network_.sim().RunUntil(12 * 4096);
  // After the abort flood settles no further result traffic flows.
  EXPECT_EQ(network_.ledger().TotalSent(MessageClass::kResult), msgs_at_kill);
}

TEST_F(InNetEngineTest, DynamicArrivalMidRunIsServed) {
  InNetworkEngine engine(network_, field_, &log_);
  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  network_.sim().ScheduleAt(3 * 4096 + 50, [&] {
    engine.SubmitQuery(
        ParseQuery(2, "SELECT MAX(temp) EPOCH DURATION 4096"));
  });
  network_.sim().RunUntil(8 * 4096);
  // The late query gets results from its first full epoch on.
  EXPECT_EQ(log_.Find(2, 3 * 4096), nullptr);
  EXPECT_NE(log_.Find(2, 5 * 4096), nullptr);
  const EpochResult* r = log_.Find(2, 5 * 4096);
  ASSERT_FALSE(r->aggregates.empty());
  EXPECT_TRUE(r->aggregates.front().second.has_value());
}

// Readings never exceed the light range's upper end, so under this query
// the hand-built rows are the only data in the network, while every node
// still installs it and ticks.
constexpr std::string_view kNoMatchQuery =
    "SELECT light WHERE light > 1000 EPOCH DURATION 2048";

TEST_F(InNetEngineTest, RelayForwardsARepeatedRowOnce) {
  InNetworkEngine engine(network_, field_, &log_);
  const NodeId child = 15;
  const NodeId relay = engine.level_graph().UpperNeighbors(child).front();
  ASSERT_NE(relay, kBaseStationId);
  network_.sim().ScheduleAt(2100, [&] {
    SendRow(child, relay, 1, 2048, child);
  });
  network_.sim().ScheduleAt(2300, [&] {
    SendRow(child, relay, 1, 2048, child);
  });
  network_.sim().RunUntil(4096);
  EXPECT_EQ(ResultsSentBy(child), 2u);
  EXPECT_EQ(ResultsSentBy(relay), 1u);
  EXPECT_EQ(engine.duplicates_suppressed(), 1u);
}

TEST_F(InNetEngineTest, BaseStationDropsARepeatedRow) {
  InNetworkEngine engine(network_, field_, &log_);
  engine.SubmitQuery(ParseQuery(1, kNoMatchQuery));
  const NodeId child = 1;
  ASSERT_TRUE(topology_.AreNeighbors(child, kBaseStationId));
  // Epoch 2048 closes at 4096: both copies arrive while it is open.
  network_.sim().ScheduleAt(2100, [&] {
    SendRow(child, kBaseStationId, 1, 2048, child);
  });
  network_.sim().ScheduleAt(2300, [&] {
    SendRow(child, kBaseStationId, 1, 2048, child);
  });
  network_.sim().RunUntil(3 * 2048);
  EXPECT_EQ(engine.duplicates_suppressed(), 1u);
  const EpochResult* result = log_.Find(1, 2048);
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows.front().node(), child);
}

TEST_F(InNetEngineTest, RowRepeatedPastThePruneHorizonIsRelayedAgain) {
  InNetworkEngine engine(network_, field_, &log_);
  // The relay prunes its duplicate keys on its own ticks, so it must run a
  // query.
  engine.SubmitQuery(ParseQuery(1, kNoMatchQuery));
  const NodeId child = 15;
  const NodeId relay = engine.level_graph().UpperNeighbors(child).front();
  ASSERT_NE(relay, kBaseStationId);
  constexpr SimTime kEpoch = 2048;
  constexpr SimDuration kPruneHorizon = 32 * 2048;
  const auto send_at = [&](SimTime at) {
    network_.sim().ScheduleAt(at, [&] {
      SendRow(child, relay, 1, kEpoch, child);
    });
    network_.sim().RunUntil(at + 1024);
  };
  send_at(kEpoch + 300);
  EXPECT_EQ(ResultsSentBy(relay), 1u);
  // The tick at kEpoch + horizon prunes only older epochs: still a repeat.
  send_at(kEpoch + kPruneHorizon + 300);
  EXPECT_EQ(ResultsSentBy(relay), 1u);
  EXPECT_EQ(engine.duplicates_suppressed(), 1u);
  // One tick later the key is forgotten: the row is relayed again and is
  // not counted as a duplicate.
  send_at(kEpoch + kPruneHorizon + 2048 + 300);
  EXPECT_EQ(ResultsSentBy(relay), 2u);
  EXPECT_EQ(engine.duplicates_suppressed(), 1u);
}

// Receivers static_cast on a tag match, so a payload must match its own
// type only.  The tag costs one pointer beside the vptr.
TEST(PayloadTagTest, PayloadAsMatchesOnlyItsOwnType) {
  static_assert(sizeof(Payload) == 2 * sizeof(void*));
  const SharedRowPayload shared_row;
  const SharedAggPayload shared_agg;
  EXPECT_EQ(PayloadAs<SharedRowPayload>(&shared_row), &shared_row);
  EXPECT_EQ(PayloadAs<SharedRowPayload>(&shared_agg), nullptr);
  EXPECT_EQ(PayloadAs<SharedRowPayload>(nullptr), nullptr);
}

}  // namespace
}  // namespace ttmqo
