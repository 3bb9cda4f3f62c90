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

TEST(ResultLogTest, AllReturnsEverythingInOrder) {
  ResultLog log;
  for (QueryId q : {2u, 1u}) {
    for (SimTime t : {8192, 4096}) {
      EpochResult r;
      r.query = q;
      r.epoch_time = t;
      log.OnResult(r);
    }
  }
  const auto all = log.All();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0]->query, 1u);
  EXPECT_EQ(all[0]->epoch_time, 4096);
  EXPECT_EQ(all[3]->query, 2u);
  EXPECT_EQ(all[3]->epoch_time, 8192);
}

}  // namespace
}  // namespace ttmqo
