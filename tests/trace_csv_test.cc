// Tests for the JSONL trace writer, the network's radio trace events, and
// the base station's answer log.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <variant>

#include "core/innet/innet_engine.h"
#include "metrics/trace.h"
#include "query/parser.h"

namespace ttmqo {
namespace {

// The "tx" events flagged as retransmissions.
std::size_t CountRetransmissions(const CollectingTraceSink& sink) {
  return static_cast<std::size_t>(std::count_if(
      sink.events().begin(), sink.events().end(), [](const TraceEvent& e) {
        if (e.kind != "tx") return false;
        for (const auto& [key, value] : e.fields) {
          if (key == "retx") return std::get<bool>(value);
        }
        return false;
      }));
}

TEST(TraceTest, JsonlWriterRecordsTransmissionsAndLifecycle) {
  const Topology topology = Topology::Grid(3);
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  std::ostringstream trace;
  JsonlTraceWriter writer(trace);
  network.SetTraceSink(&writer);

  Message msg;
  msg.mode = AddressMode::kUnicast;
  msg.sender = 4;
  msg.destinations = {0};
  msg.payload_bytes = 12;
  network.Send(std::move(msg));
  network.SetAsleep(5, true);
  network.FailNode(7);
  network.sim().RunUntil(1000);

  const std::string text = trace.str();
  EXPECT_NE(text.find("\"event\":\"tx\""), std::string::npos);
  EXPECT_NE(text.find("\"from\":4"), std::string::npos);
  EXPECT_NE(text.find("\"dests\":[0]"), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"sleep\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"fail\""), std::string::npos);
  EXPECT_EQ(writer.events(), 3u);
  // One JSON object per line.
  EXPECT_EQ(static_cast<std::uint64_t>(
                std::count(text.begin(), text.end(), '\n')),
            writer.events());
}

TEST(TraceTest, NetworkSinkSeesEngineTraffic) {
  const Topology topology = Topology::Grid(4);
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  CollectingTraceSink sink;
  network.SetTraceSink(&sink);
  UniformFieldModel field(2);
  ResultLog log;
  InNetworkEngine engine(network, field, &log);
  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  network.sim().RunUntil(4 * 4096);
  EXPECT_EQ(sink.CountKind("tx"), network.ledger().TotalMessages() +
                                      network.ledger().TotalRetransmissions());
  EXPECT_EQ(CountRetransmissions(sink), 0u);
  // The engine's decisions share the stream with its radio events.
  EXPECT_EQ(sink.CountKind("tier2.submit"), 1u);
  EXPECT_GT(sink.CountKind("tier2.epoch_close"), 0u);
}

TEST(TraceTest, RetransmissionsAreFlagged) {
  const Topology topology = Topology::Grid(3);
  ChannelParams channel;
  channel.collision_prob = 0.5;
  Network network(topology, RadioParams{}, channel, 7);
  CollectingTraceSink sink;
  network.SetTraceSink(&sink);
  for (NodeId n = 0; n < topology.size(); ++n) {
    Message msg;
    msg.mode = AddressMode::kBroadcast;
    msg.sender = n;
    msg.payload_bytes = 24;
    network.Send(std::move(msg));
  }
  network.sim().RunUntil(20'000);
  EXPECT_GT(CountRetransmissions(sink), 0u);
  EXPECT_EQ(CountRetransmissions(sink),
            network.ledger().TotalRetransmissions());
}

EpochResult Answer(QueryId query, SimTime t, std::size_t rows) {
  EpochResult r;
  r.query = query;
  r.epoch_time = t;
  for (std::size_t i = 0; i < rows; ++i) {
    r.rows.emplace_back(static_cast<NodeId>(i + 1), t);
  }
  return r;
}

TEST(ResultLogTest, AllReturnsEverythingInOrder) {
  // Answers arrive out of (query, epoch) order.
  ResultLog log;
  const std::pair<QueryId, SimTime> arrivals[] = {
      {3, 8192}, {1, 12288}, {2, 4096}, {1, 4096}, {3, 0}, {1, 8192}};
  for (const auto& [q, t] : arrivals) log.OnResult(Answer(q, t, 1));
  const std::pair<QueryId, SimTime> expected[] = {
      {1, 4096}, {1, 8192}, {1, 12288}, {2, 4096}, {3, 0}, {3, 8192}};
  const auto all = log.All();
  ASSERT_EQ(all.size(), std::size(expected));
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i]->query, expected[i].first) << i;
    EXPECT_EQ(all[i]->epoch_time, expected[i].second) << i;
  }
}

TEST(ResultLogTest, RepeatedKeyKeepsTheLastAnswer) {
  ResultLog log;
  log.OnResult(Answer(1, 4096, 2));
  log.OnResult(Answer(1, 8192, 1));
  log.OnResult(Answer(1, 4096, 5));
  EXPECT_EQ(log.size(), 2u);
  const EpochResult* found = log.Find(1, 4096);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->rows.size(), 5u);
  EXPECT_EQ(log.ResultsFor(1).size(), 2u);
}

TEST(ResultLogTest, FindAndResultsForReturnTheRightAnswers) {
  ResultLog log;
  // Neighbouring ids on both sides of query 2, and epochs at the ends of
  // the time axis, so a key-range read cannot spill into them.
  log.OnResult(Answer(1, 1LL << 40, 1));
  log.OnResult(Answer(2, 8192, 2));
  log.OnResult(Answer(3, 0, 3));
  log.OnResult(Answer(2, 0, 4));
  log.OnResult(Answer(2, 1LL << 40, 5));
  log.OnResult(Answer(4, 4096, 6));

  const auto two = log.ResultsFor(2);
  ASSERT_EQ(two.size(), 3u);
  EXPECT_EQ(two[0]->epoch_time, 0);
  EXPECT_EQ(two[0]->rows.size(), 4u);
  EXPECT_EQ(two[1]->epoch_time, 8192);
  EXPECT_EQ(two[1]->rows.size(), 2u);
  EXPECT_EQ(two[2]->epoch_time, 1LL << 40);
  EXPECT_EQ(two[2]->rows.size(), 5u);
  for (const EpochResult* r : two) EXPECT_EQ(r->query, 2u);
  ASSERT_EQ(log.ResultsFor(1).size(), 1u);
  EXPECT_EQ(log.ResultsFor(1)[0]->rows.size(), 1u);
  EXPECT_TRUE(log.ResultsFor(5).empty());
  EXPECT_TRUE(log.ResultsFor(0).empty());

  const EpochResult* found = log.Find(3, 0);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->query, 3u);
  EXPECT_EQ(found->rows.size(), 3u);
  EXPECT_EQ(log.Find(3, 4096), nullptr);
  EXPECT_EQ(log.Find(5, 0), nullptr);
}

TEST(ResultLogTest, LoggingAnLvalueLeavesTheCallersAnswerIntact) {
  ResultLog log;
  EpochResult answer = Answer(7, 4096, 3);
  answer.aggregates.emplace_back(
      AggregateSpec{AggregateOp::kMax, Attribute::kLight}, 12.5);
  log.OnResult(answer);
  ASSERT_EQ(answer.rows.size(), 3u);
  EXPECT_EQ(answer.rows[2].node(), 3);
  ASSERT_EQ(answer.aggregates.size(), 1u);
  const EpochResult* logged = log.Find(7, 4096);
  ASSERT_NE(logged, nullptr);
  EXPECT_EQ(logged->rows.size(), 3u);
  EXPECT_EQ(logged->aggregates.size(), 1u);
  // The log holds its own copy: changing the caller's answer leaves it be.
  answer.rows.clear();
  EXPECT_EQ(log.Find(7, 4096)->rows.size(), 3u);
}

}  // namespace
}  // namespace ttmqo
