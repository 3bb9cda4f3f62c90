// Tests for the trace observer and CSV export.
#include <gtest/gtest.h>

#include <sstream>

#include "core/innet/innet_engine.h"
#include "metrics/csv.h"
#include "metrics/trace.h"
#include "query/parser.h"

namespace ttmqo {
namespace {

TEST(TraceTest, JsonlWriterRecordsTransmissionsAndLifecycle) {
  const Topology topology = Topology::Grid(3);
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  std::ostringstream trace;
  JsonlTraceWriter writer(trace);
  network.observers().Add(&writer);

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

TEST(TraceTest, CountingObserverSeesEngineTraffic) {
  const Topology topology = Topology::Grid(4);
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  CountingObserver counter;
  network.observers().Add(&counter);
  UniformFieldModel field(2);
  ResultLog log;
  InNetworkEngine engine(network, field, &log);
  engine.SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
  network.sim().RunUntil(4 * 4096);
  EXPECT_EQ(counter.transmissions, network.ledger().TotalMessages() +
                                       network.ledger().TotalRetransmissions());
  EXPECT_EQ(counter.retransmissions, 0u);
}

TEST(TraceTest, RetransmissionsAreFlagged) {
  const Topology topology = Topology::Grid(3);
  ChannelParams channel;
  channel.collision_prob = 0.5;
  Network network(topology, RadioParams{}, channel, 7);
  CountingObserver counter;
  network.observers().Add(&counter);
  for (NodeId n = 0; n < topology.size(); ++n) {
    Message msg;
    msg.mode = AddressMode::kBroadcast;
    msg.sender = n;
    msg.payload_bytes = 24;
    network.Send(std::move(msg));
  }
  network.sim().RunUntil(20'000);
  EXPECT_GT(counter.retransmissions, 0u);
  EXPECT_EQ(counter.retransmissions,
            network.ledger().TotalRetransmissions());
}

TEST(CsvTest, ExportsRowsAndAggregates) {
  ResultLog log;
  EpochResult acq;
  acq.query = 1;
  acq.epoch_time = 4096;
  acq.kind = QueryKind::kAcquisition;
  Reading row(5, 4096);
  row.Set(Attribute::kLight, 321.5);
  acq.rows.push_back(row);
  log.OnResult(acq);

  EpochResult agg;
  agg.query = 2;
  agg.epoch_time = 8192;
  agg.kind = QueryKind::kAggregation;
  agg.aggregates = {
      {AggregateSpec{AggregateOp::kMax, Attribute::kTemp}, 42.0},
      {AggregateSpec{AggregateOp::kMin, Attribute::kTemp}, std::nullopt},
  };
  log.OnResult(agg);

  std::ostringstream out;
  WriteResultsCsv(log, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("query,epoch_ms,kind,source,field,value"),
            std::string::npos);
  EXPECT_NE(text.find("1,4096,row,5,light,321.5"), std::string::npos);
  EXPECT_NE(text.find("2,8192,agg,,MAX(temp),42"), std::string::npos);
  EXPECT_NE(text.find("2,8192,agg,,MIN(temp),\n"), std::string::npos);
}

TEST(CsvTest, AllReturnsEverythingInOrder) {
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
