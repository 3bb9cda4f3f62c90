// End-to-end tests of the TinyDB baseline engine against the field oracle,
// and unit tests of the base station's answer buffer both engines share.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "query/parser.h"
#include "test_helpers.h"
#include "tinydb/epoch_buffer.h"
#include "tinydb/tinydb_engine.h"

namespace ttmqo {
namespace {

using ::ttmqo::testing::FillOracle;

class TinyDbEngineTest : public ::testing::Test {
 protected:
  TinyDbEngineTest()
      : topology_(Topology::Grid(4)),
        network_(topology_, RadioParams{}, ChannelParams{}, 42),
        field_(7) {}

  void RunWith(const std::vector<Query>& queries, SimTime until) {
    TinyDbEngine engine(network_, field_, &log_);
    for (const Query& q : queries) engine.SubmitQuery(q);
    network_.sim().RunUntil(until);
  }

  Topology topology_;
  Network network_;
  UniformFieldModel field_;
  ResultLog log_;
};

TEST_F(TinyDbEngineTest, AcquisitionMatchesOracle) {
  const Query q = ParseQuery(
      1, "SELECT light WHERE light > 300 EPOCH DURATION 4096");
  RunWith({q}, 10 * 4096);
  ResultLog oracle;
  FillOracle(oracle, q, 10 * 4096, field_, topology_);
  EXPECT_GT(log_.size(), 0u);
  const auto diff = CompareResultLogs(oracle, log_, {q});
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_F(TinyDbEngineTest, AggregationMatchesOracle) {
  const Query q = ParseQuery(
      2, "SELECT MAX(light), MIN(temp), AVG(light) EPOCH DURATION 4096");
  RunWith({q}, 10 * 4096);
  ResultLog oracle;
  FillOracle(oracle, q, 10 * 4096, field_, topology_);
  const auto diff = CompareResultLogs(oracle, log_, {q});
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_F(TinyDbEngineTest, AggregationWithPredicateMatchesOracle) {
  const Query q = ParseQuery(
      3,
      "SELECT MAX(light) WHERE temp BETWEEN 20 AND 80 EPOCH DURATION 8192");
  RunWith({q}, 8 * 8192);
  ResultLog oracle;
  FillOracle(oracle, q, 8 * 8192, field_, topology_);
  const auto diff = CompareResultLogs(oracle, log_, {q});
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_F(TinyDbEngineTest, UnselectiveQueryReturnsAllSensorRows) {
  const Query q = ParseQuery(4, "SELECT light EPOCH DURATION 4096");
  RunWith({q}, 3 * 4096);
  const EpochResult* first = log_.Find(4, 4096);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->rows.size(), topology_.size() - 1);  // all but the BS
}

TEST_F(TinyDbEngineTest, ConcurrentQueriesAreIndependent) {
  const Query a = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  const Query b =
      ParseQuery(2, "SELECT MAX(temp) EPOCH DURATION 8192");
  RunWith({a, b}, 6 * 8192);
  ResultLog oracle;
  FillOracle(oracle, a, 6 * 8192, field_, topology_);
  FillOracle(oracle, b, 6 * 8192, field_, topology_);
  const auto diff = CompareResultLogs(oracle, log_, {a, b});
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_F(TinyDbEngineTest, TerminationStopsResultsAndCleansUp) {
  const Query q = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  TinyDbEngine engine(network_, field_, &log_);
  engine.SubmitQuery(q);
  network_.sim().ScheduleAt(5 * 4096 + 100,
                            [&] { engine.TerminateQuery(1); });
  network_.sim().RunUntil(10 * 4096);
  // Epochs 1..4 closed (epoch t closes at t+4096 <= termination time).
  EXPECT_NE(log_.Find(1, 4 * 4096), nullptr);
  EXPECT_EQ(log_.Find(1, 6 * 4096), nullptr);
  EXPECT_TRUE(engine.ActiveQueries().empty());
  // The abort flood reached the network.
  EXPECT_GT(network_.ledger().TotalSent(MessageClass::kQueryAbort), 0u);
}

TEST_F(TinyDbEngineTest, DuplicateOrUnknownIdsRejected) {
  const Query q = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  TinyDbEngine engine(network_, field_, &log_);
  engine.SubmitQuery(q);
  EXPECT_THROW(engine.SubmitQuery(q), std::invalid_argument);
  EXPECT_THROW(engine.TerminateQuery(99), std::invalid_argument);
}

TEST_F(TinyDbEngineTest, EachQueryPaysItsOwnTraffic) {
  // Two identical queries double the result traffic: the defining weakness
  // of the baseline that TTMQO removes.
  const Query a = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  RunWith({a}, 8 * 4096);
  const auto solo = network_.ledger().TotalSent(MessageClass::kResult);

  Network network2(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log2;
  TinyDbEngine engine2(network2, field_, &log2);
  engine2.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  engine2.SubmitQuery(ParseQuery(2, "SELECT light EPOCH DURATION 4096"));
  network2.sim().RunUntil(8 * 4096);
  const auto duo = network2.ledger().TotalSent(MessageClass::kResult);
  EXPECT_EQ(duo, 2 * solo);
}

TEST_F(TinyDbEngineTest, ResultTrafficScalesWithSelectivity) {
  const Query narrow = ParseQuery(
      1, "SELECT light WHERE light < 200 EPOCH DURATION 4096");
  RunWith({narrow}, 8 * 4096);
  const auto narrow_msgs = network_.ledger().TotalSent(MessageClass::kResult);

  Network network2(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log2;
  TinyDbEngine engine2(network2, field_, &log2);
  engine2.SubmitQuery(ParseQuery(2, "SELECT light EPOCH DURATION 4096"));
  network2.sim().RunUntil(8 * 4096);
  const auto full_msgs = network2.ledger().TotalSent(MessageClass::kResult);
  EXPECT_LT(narrow_msgs, full_msgs);
}

TEST_F(TinyDbEngineTest, InNetworkAggregationReducesMessagesVsAcquisition) {
  const Query agg = ParseQuery(1, "SELECT MAX(light) EPOCH DURATION 4096");
  RunWith({agg}, 8 * 4096);
  const auto agg_msgs = network_.ledger().TotalSent(MessageClass::kResult);

  Network network2(topology_, RadioParams{}, ChannelParams{}, 42);
  ResultLog log2;
  TinyDbEngine engine2(network2, field_, &log2);
  engine2.SubmitQuery(ParseQuery(2, "SELECT light EPOCH DURATION 4096"));
  network2.sim().RunUntil(8 * 4096);
  const auto acq_msgs = network2.ledger().TotalSent(MessageClass::kResult);
  // TAG partial aggregation: at most one result message per node per epoch,
  // while acquisition relays every row hop by hop.
  EXPECT_LT(agg_msgs, acq_msgs);
}

// --- EpochBuffer --------------------------------------------------------

Reading RowOf(NodeId node, SimTime epoch, double light, double temp) {
  Reading row(node, epoch);
  row.Set(Attribute::kLight, light);
  row.Set(Attribute::kTemp, temp);
  return row;
}

// A field that records which nodes sampled at which instants.
class CountingField final : public FieldModel {
 public:
  double Sample(NodeId node, const Position& pos, Attribute attr,
                SimTime time) const override {
    ++samples_[{node, time}];
    return inner_.Sample(node, pos, attr, time);
  }

  /// Attribute samples `node` took at `time`.
  std::size_t SamplesAt(NodeId node, SimTime time) const {
    const auto it = samples_.find({node, time});
    return it == samples_.end() ? 0 : it->second;
  }

 private:
  UniformFieldModel inner_{7};
  mutable std::map<std::pair<NodeId, SimTime>, std::size_t> samples_;
};

// A node in a transient outage at its epoch start takes no sample and
// contributes nothing of its own, but still forwards its children's
// partials once it is back.
TEST(TinyDbTest, DownNodeTakesNoSample) {
  constexpr SimDuration kEpoch = 4096;
  const Topology topology = Topology::Grid(4);
  Network network(topology, RadioParams{}, ChannelParams{}, 42);
  const CountingField field;
  ResultLog log;
  TinyDbEngine engine(network, field, &log);
  // The relay with the most children (the lowest id among equals).
  std::vector<std::size_t> children(topology.size(), 0);
  for (NodeId node = 1; node < topology.size(); ++node) {
    ++children[engine.routing_tree().ParentOf(node)];
  }
  NodeId relay = 1;
  for (NodeId node = 2; node < topology.size(); ++node) {
    if (children[node] > children[relay]) relay = node;
  }
  ASSERT_GT(children[relay], 0u);
  const std::size_t sensors = topology.size() - 1;

  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  engine.SubmitQuery(ParseQuery(2, "SELECT COUNT(light) EPOCH DURATION 4096"));
  // Down across the starts of epochs 3-5; then down for 2 ms around the
  // start of epoch 7, back before any child's slot.
  network.sim().ScheduleAt(3 * kEpoch - 100, [&] { network.SetDown(relay); });
  network.sim().ScheduleAt(6 * kEpoch - 100, [&] { network.Recover(relay); });
  network.sim().ScheduleAt(7 * kEpoch - 1, [&] { network.SetDown(relay); });
  network.sim().ScheduleAt(7 * kEpoch + 1, [&] { network.Recover(relay); });
  network.sim().RunUntil(10 * kEpoch);

  for (SimTime epoch = 1; epoch <= 8; ++epoch) {
    const bool down = (epoch >= 3 && epoch <= 5) || epoch == 7;
    EXPECT_EQ(field.SamplesAt(relay, epoch * kEpoch) == 0, down)
        << "epoch " << epoch;
  }
  // The relay's own row and reading are missing from epoch 7 alone; its
  // children's partials, sent after it recovered, are forwarded.
  const EpochResult* rows = log.Find(1, 7 * kEpoch);
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->rows.size(), sensors - 1);
  const EpochResult* count = log.Find(2, 7 * kEpoch);
  ASSERT_NE(count, nullptr);
  ASSERT_TRUE(count->aggregates.at(0).second.has_value());
  EXPECT_EQ(*count->aggregates.at(0).second, static_cast<double>(sensors - 1));
  const EpochResult* after = log.Find(2, 8 * kEpoch);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(*after->aggregates.at(0).second, static_cast<double>(sensors));
}

TEST(EpochBufferTest, SecondRowFromOneSourceIsADuplicate) {
  const Query q = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  EpochBuffer buffer;
  EXPECT_EQ(buffer.AddRow(4096, RowOf(3, 4096, 10, 20)),
            EpochBuffer::Arrival::kStored);
  EXPECT_EQ(buffer.AddRow(4096, RowOf(3, 4096, 99, 99)),
            EpochBuffer::Arrival::kDuplicate);
  EXPECT_EQ(buffer.AddRow(4096, RowOf(5, 4096, 30, 40)),
            EpochBuffer::Arrival::kStored);
  EXPECT_EQ(buffer.Contributors(4096), 2);
  const EpochResult result = buffer.Close(q, 4096);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].node(), 3);
  EXPECT_DOUBLE_EQ(result.rows[0].GetOrThrow(Attribute::kLight), 10);
  EXPECT_EQ(result.rows[1].node(), 5);
}

TEST(EpochBufferTest, ArrivalsAfterCloseAreLateAndNotStored) {
  const Query q = ParseQuery(1, "SELECT MAX(light) EPOCH DURATION 4096");
  const AggregateSpec max_light = q.aggregates()[0];
  EpochBuffer buffer;
  EXPECT_FALSE(buffer.IsClosed(4096));
  (void)buffer.Close(q, 4096);
  EXPECT_TRUE(buffer.IsClosed(4096));
  EXPECT_TRUE(buffer.IsClosed(0));
  EXPECT_FALSE(buffer.IsClosed(8192));
  EXPECT_EQ(buffer.AddRow(4096, RowOf(3, 4096, 10, 20)),
            EpochBuffer::Arrival::kLate);
  EXPECT_FALSE(buffer.HasRow(4096, 3));
  EXPECT_EQ(buffer.AddPartials(
                4096, std::vector{PartialAggregate::OfValue(max_light, 7)}),
            EpochBuffer::Arrival::kLate);
  EXPECT_EQ(buffer.Contributors(4096), 0);
  // The next epoch is still open, and partials merge element-wise.
  EXPECT_EQ(buffer.AddPartials(
                8192, std::vector{PartialAggregate::OfValue(max_light, 7)}),
            EpochBuffer::Arrival::kStored);
  EXPECT_EQ(buffer.AddPartials(
                8192, std::vector{PartialAggregate::OfValue(max_light, 9)}),
            EpochBuffer::Arrival::kStored);
  EXPECT_EQ(buffer.Contributors(8192), 2);
  const EpochResult result = buffer.Close(q, 8192);
  ASSERT_EQ(result.aggregates.size(), 1u);
  EXPECT_DOUBLE_EQ(*result.aggregates[0].second, 9);
}

TEST(EpochBufferTest, CloseProjectsRowsToTheQueryAttributes) {
  // Tier 2 packs the union of every answered query's attributes into one
  // row; the answer carries only this query's.
  const Query q = ParseQuery(7, "SELECT temp EPOCH DURATION 8192");
  EpochBuffer buffer;
  ASSERT_EQ(buffer.AddRow(8192, RowOf(4, 8192, 10, 20)),
            EpochBuffer::Arrival::kStored);
  const EpochResult result = buffer.Close(q, 8192);
  EXPECT_EQ(result.query, 7);
  EXPECT_EQ(result.epoch_time, 8192);
  EXPECT_EQ(result.kind, QueryKind::kAcquisition);
  ASSERT_EQ(result.rows.size(), 1u);
  const Reading& row = result.rows[0];
  EXPECT_EQ(row.node(), 4);
  EXPECT_EQ(row.time(), 8192);
  EXPECT_DOUBLE_EQ(row.GetOrThrow(Attribute::kTemp), 20);
  EXPECT_FALSE(row.Has(Attribute::kLight));
  EXPECT_EQ(result.coverage, -1.0);
  EXPECT_EQ(result.contributing_nodes, -1);
}

TEST(EpochBufferTest, FinalizingWithNoPartialsGivesEmptySetAnswers) {
  const Query q =
      ParseQuery(1, "SELECT MAX(light), COUNT(light) EPOCH DURATION 4096");
  EpochBuffer buffer;
  EXPECT_EQ(buffer.Contributors(4096), 0);
  const EpochResult result = buffer.Close(q, 4096);
  EXPECT_EQ(result.kind, QueryKind::kAggregation);
  EXPECT_TRUE(result.rows.empty());
  ASSERT_EQ(result.aggregates.size(), 2u);
  EXPECT_EQ(result.aggregates[0].first, q.aggregates()[0]);
  EXPECT_FALSE(result.aggregates[0].second.has_value());
  ASSERT_TRUE(result.aggregates[1].second.has_value());
  EXPECT_DOUBLE_EQ(*result.aggregates[1].second, 0);
}

TEST(EpochBufferTest, CloseDropsEarlierEpochsAndClearDropsTheRest) {
  const Query q = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  EpochBuffer buffer;
  for (SimTime epoch : {4096, 8192, 12288}) {
    ASSERT_EQ(buffer.AddRow(epoch, RowOf(2, epoch, 1, 1)),
              EpochBuffer::Arrival::kStored);
  }
  // Closing 8192 answers 8192 only, and drops the never-closed 4096 too.
  const EpochResult result = buffer.Close(q, 8192);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].time(), 8192);
  EXPECT_FALSE(buffer.HasRow(4096, 2));
  EXPECT_FALSE(buffer.HasRow(8192, 2));
  EXPECT_TRUE(buffer.IsClosed(4096));
  EXPECT_TRUE(buffer.HasRow(12288, 2));
  buffer.Clear();
  EXPECT_FALSE(buffer.HasRow(12288, 2));
  EXPECT_EQ(buffer.Contributors(12288), 0);
  EXPECT_TRUE(buffer.Close(q, 12288).rows.empty());
}

}  // namespace
}  // namespace ttmqo
