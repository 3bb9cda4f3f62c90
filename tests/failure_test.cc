// Node-failure injection: the paper lists failure handling as future work;
// we implement crash faults and verify that (a) nothing breaks, (b) the
// in-network tier's dynamic DAG routes around dead relays while TinyDB's
// fixed tree loses whole subtrees.
#include <gtest/gtest.h>

#include "core/innet/innet_engine.h"
#include "query/parser.h"
#include "test_helpers.h"
#include "tinydb/tinydb_engine.h"

namespace ttmqo {
namespace {

TEST(NetworkFailureTest, FailedNodesNeitherSendNorReceive) {
  const Topology topology = Topology::Grid(3);
  for (const Network::Hearing hearing : testing::kBothHearings) {
    Network network(topology, RadioParams{}, ChannelParams{}, 1);
    int received = 0;
    for (NodeId n : topology.AllNodes()) {
      network.SetReceiver(
          n,
          [&received](const Message&, bool addressed) {
            if (addressed) ++received;
          },
          hearing);
    }
    network.FailNode(4);
    // The dead node's sends vanish...
    Message from_dead;
    from_dead.mode = AddressMode::kBroadcast;
    from_dead.sender = 4;
    network.Send(std::move(from_dead));
    network.sim().RunUntil(100);
    EXPECT_EQ(received, 0);
    EXPECT_EQ(network.ledger().TotalMessages(), 0u);
    // ...and traffic addressed to it disappears silently.
    Message to_dead;
    to_dead.mode = AddressMode::kUnicast;
    to_dead.sender = 0;
    to_dead.destinations = {4};
    network.Send(std::move(to_dead));
    network.sim().RunUntil(200);
    EXPECT_EQ(received, 0);
    EXPECT_EQ(network.ledger().StatsOf(4).received, 0u);
  }
}

TEST(NetworkFailureTest, BaseStationCannotFail) {
  const Topology topology = Topology::Grid(3);
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  EXPECT_THROW(network.FailNode(kBaseStationId), std::invalid_argument);
  network.FailNode(5);
  EXPECT_TRUE(network.IsFailed(5));
  EXPECT_EQ(network.NumFailed(), 1u);
  network.FailNode(5);  // idempotent
  EXPECT_EQ(network.NumFailed(), 1u);
}

// A corner-heavy cluster field: data lives far from the base station, so
// every answer crosses relays that we can kill.
class FarClusterField final : public FieldModel {
 public:
  double Sample(NodeId node, const Position& pos, Attribute attr,
                SimTime) const override {
    if (attr == Attribute::kNodeId) return node;
    return (pos.x >= 60 && pos.y >= 60) ? 900.0 : 100.0;
  }
};

TEST(EngineFailureTest, InNetworkRoutesAroundDeadRelays) {
  // 5x5 grid; the hot cluster is the far corner (x,y >= 60).  Kill two
  // mid-grid relays after a few epochs.
  const Topology topology = Topology::Grid(5);
  const FarClusterField field;
  const Query q =
      ParseQuery(1, "SELECT light WHERE light > 800 EPOCH DURATION 4096");

  std::size_t innet_rows_after = 0, tinydb_rows_after = 0;
  for (bool innet : {true, false}) {
    Network network(topology, RadioParams{}, ChannelParams{}, 9);
    ResultLog log;
    std::unique_ptr<QueryEngine> engine;
    if (innet) {
      engine = std::make_unique<InNetworkEngine>(network, field, &log);
    } else {
      engine = std::make_unique<TinyDbEngine>(network, field, &log);
    }
    engine->SubmitQuery(q);
    // After epoch 3, kill the two central relays.
    network.sim().ScheduleAt(3 * 4096 + 500, [&network]() {
      network.FailNode(12);
      network.FailNode(13);
    });
    network.sim().RunUntil(10 * 4096);
    // Count rows arriving after the failure settles (epochs 5..9).
    std::size_t rows_after = 0;
    for (const EpochResult* r : log.ResultsFor(1)) {
      if (r->epoch_time >= 5 * 4096) rows_after += r->rows.size();
    }
    (innet ? innet_rows_after : tinydb_rows_after) = rows_after;
  }
  // 4 cluster nodes (x,y >= 60) x 5 epochs = 20 expected rows.  The DAG
  // reroutes around the dead relays and recovers everything; the fixed
  // tree loses whatever subtree hung under them.
  EXPECT_GE(innet_rows_after, tinydb_rows_after);
  EXPECT_EQ(innet_rows_after, 20u)
      << "the DAG should recover every row after the failure";
}

TEST(EngineFailureTest, EnginesSurviveManyFailures) {
  const Topology topology = Topology::Grid(4);
  UniformFieldModel field(3);
  for (bool innet : {true, false}) {
    Network network(topology, RadioParams{}, ChannelParams{}, 9);
    ResultLog log;
    std::unique_ptr<QueryEngine> engine;
    if (innet) {
      engine = std::make_unique<InNetworkEngine>(network, field, &log);
    } else {
      engine = std::make_unique<TinyDbEngine>(network, field, &log);
    }
    engine->SubmitQuery(ParseQuery(1, "SELECT light EPOCH DURATION 4096"));
    engine->SubmitQuery(
        ParseQuery(2, "SELECT MAX(temp) EPOCH DURATION 8192"));
    // Kill half of the sensors over time.
    for (NodeId n = 2; n < topology.size(); n += 2) {
      network.sim().ScheduleAt(static_cast<SimTime>(n) * 3000,
                               [&network, n]() { network.FailNode(n); });
    }
    network.sim().RunUntil(12 * 4096);
    EXPECT_GT(log.size(), 0u);
    // Dead sources never report (by the last epoch every even node has
    // been dead for several epochs).
    for (const EpochResult* r : log.ResultsFor(1)) {
      if (r->epoch_time < 11 * 4096) continue;
      for (const Reading& row : r->rows) {
        EXPECT_FALSE(network.IsFailed(row.node()))
            << "node " << row.node() << " at epoch " << r->epoch_time;
      }
    }
  }
}

TEST(EngineFailureTest, FailuresNeverCorruptDeliveredValues) {
  const Topology topology = Topology::Grid(4);
  UniformFieldModel field(3);
  Network network(topology, RadioParams{}, ChannelParams{}, 9);
  ResultLog log;
  InNetworkEngine engine(network, field, &log);
  const Query q = ParseQuery(1, "SELECT light EPOCH DURATION 4096");
  engine.SubmitQuery(q);
  network.sim().ScheduleAt(2 * 4096 + 7, [&]() { network.FailNode(5); });
  network.sim().RunUntil(8 * 4096);
  for (const EpochResult* r : log.ResultsFor(1)) {
    const EpochResult truth =
        testing::OracleResult(q, r->epoch_time, field, topology);
    std::map<NodeId, double> expected;
    for (const Reading& row : truth.rows) {
      expected[row.node()] = row.GetOrThrow(Attribute::kLight);
    }
    for (const Reading& row : r->rows) {
      ASSERT_TRUE(expected.contains(row.node()));
      EXPECT_DOUBLE_EQ(row.GetOrThrow(Attribute::kLight),
                       expected[row.node()]);
    }
  }
}

}  // namespace
}  // namespace ttmqo
