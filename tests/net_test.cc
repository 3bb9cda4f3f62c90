// Unit tests for the simulator core, topology, channel and ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/simulator.h"
#include "test_helpers.h"
#include "net/topology.h"

namespace ttmqo {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, EqualTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.RunUntil(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, HandlersMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) sim.ScheduleAfter(10, chain);
  };
  sim.ScheduleAt(0, chain);
  sim.RunUntil(1000);
  EXPECT_EQ(fired, 5);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(11, [&] { ++fired; });
  sim.RunUntil(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, SchedulingInThePastThrows) {
  Simulator sim;
  sim.ScheduleAt(10, [] {});
  sim.RunUntil(10);
  EXPECT_THROW(sim.ScheduleAt(5, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.ScheduleAfter(-1, [] {}), std::invalid_argument);
}

TEST(TopologyTest, GridGeometryMatchesThePaper) {
  const Topology t = Topology::Grid(4);  // 20 ft spacing, 50 ft range
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.PositionOf(0), (Position{0, 0}));
  EXPECT_EQ(t.PositionOf(5), (Position{20, 20}));
  // 50 ft range covers offsets (1,0)=20, (1,1)=28.3, (2,0)=40, (2,1)=44.7
  // but not (2,2)=56.6 or (3,0)=60.
  EXPECT_TRUE(t.AreNeighbors(0, 1));
  EXPECT_TRUE(t.AreNeighbors(0, 5));   // diagonal
  EXPECT_TRUE(t.AreNeighbors(0, 2));   // two to the right
  EXPECT_TRUE(t.AreNeighbors(0, 6));   // (2,1)
  EXPECT_FALSE(t.AreNeighbors(0, 10)); // (2,2)
  EXPECT_FALSE(t.AreNeighbors(0, 3));  // (3,0)
}

TEST(TopologyTest, HopLevelsFromTheBaseStation) {
  const Topology t = Topology::Grid(4);
  const auto& levels = t.HopLevels();
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[1], 1u);
  EXPECT_EQ(levels[6], 1u);
  // Node 15 at (60,60): two hops (e.g. via node 10 at (40,40)? 10 is not a
  // neighbor of 0; via 6 at (40,20)... distance 6->15 = sqrt(40^2+20^2)=44.7
  // so 15 is reachable in 2 hops.
  EXPECT_EQ(levels[15], 2u);
  std::size_t total = 0;
  for (std::size_t n : t.NodesPerLevel()) total += n;
  EXPECT_EQ(total, t.size());
}

TEST(TopologyTest, NeighborSymmetry) {
  const Topology t = Topology::Grid(5);
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b : t.NeighborsOf(a)) {
      EXPECT_TRUE(t.AreNeighbors(b, a));
      EXPECT_NE(a, b);
    }
  }
}

TEST(TopologyTest, DisconnectedDeploymentRejected) {
  std::vector<Position> positions = {{0, 0}, {1000, 1000}};
  EXPECT_THROW(Topology(std::move(positions), 50.0), std::invalid_argument);
}

TEST(TopologyTest, RandomUniformIsConnectedAndDeterministic) {
  const Topology a = Topology::RandomUniform(20, 150, 60, 5);
  const Topology b = Topology::RandomUniform(20, 150, 60, 5);
  EXPECT_EQ(a.size(), 20u);
  for (NodeId n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a.PositionOf(n), b.PositionOf(n));
  }
}

TEST(TopologyTest, NodeCountsBeyondNodeIdAreRejectedBeforeAllocating) {
  // Each call must throw at once, naming the NodeId limit, rather than
  // allocate (a side of SIZE_MAX wraps side*side to 1, so a reserve would
  // pass and the position loop would run away) or redraw deployments.
  const auto message_of = [](auto build) -> std::string {
    try {
      build();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no exception)";
  };
  // 256 x 256 = 65536 nodes, one more than a NodeId can address.
  const std::string grid = message_of([] { Topology::Grid(256); });
  EXPECT_NE(grid.find("Topology::Grid"), std::string::npos) << grid;
  EXPECT_NE(grid.find("65535"), std::string::npos) << grid;
  const std::string wrapping = message_of(
      [] { Topology::Grid(std::numeric_limits<std::size_t>::max()); });
  EXPECT_NE(wrapping.find("Topology::Grid"), std::string::npos) << wrapping;
  const std::string random =
      message_of([] { Topology::RandomUniform(70000, 150, 50, 1); });
  EXPECT_NE(random.find("NodeId"), std::string::npos) << random;
  // The largest grid a NodeId can address still builds.
  EXPECT_EQ(Topology::Grid(255).size(), 255u * 255u);
}

// The definition the cell build must reproduce: every pair compared by
// Distance().  Lists come out ascending and never hold the node itself.
::testing::AssertionResult MatchesBruteForce(const Topology& t) {
  const std::size_t n = t.size();
  const double range = t.range_feet();
  const double interference = kInterferenceRangeFactor * range;
  std::vector<std::vector<NodeId>> neighbors(n);
  std::vector<std::vector<NodeId>> interferers(n);
  const auto link = [](std::vector<std::vector<NodeId>>& lists,
                       std::size_t a, std::size_t b) {
    lists[a].push_back(static_cast<NodeId>(b));
    lists[b].push_back(static_cast<NodeId>(a));
  };
  std::vector<Position> positions;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(t.PositionOf(static_cast<NodeId>(i)));
  }
  // Pairs in (a, b) order leave every list ascending.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double d = Distance(positions[a], positions[b]);
      if (d <= range) link(neighbors, a, b);
      if (d <= interference) link(interferers, a, b);
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    const auto node = static_cast<NodeId>(a);
    if (t.NeighborsOf(node) != neighbors[a]) {
      return ::testing::AssertionFailure()
             << "neighbors of node " << a << " differ from the reference";
    }
    const auto span = t.InterferersOf(node);
    if (std::vector<NodeId>(span.begin(), span.end()) != interferers[a]) {
      return ::testing::AssertionFailure()
             << "interferers of node " << a << " differ from the reference";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(TopologyTest, CellBuildMatchesBruteForceDistances) {
  for (std::size_t side = 1; side <= 70; ++side) {
    EXPECT_TRUE(MatchesBruteForce(Topology::Grid(side))) << "side " << side;
  }
  // Those grids hold offsets exactly at twice the 50 ft range: (100, 0)
  // and (60, 80) ft from node 0 interfere, (100, 20) ft does not.
  const Topology six = Topology::Grid(6);
  const auto interferers = six.InterferersOf(0);
  const auto interferes = [&](NodeId b) {
    return std::find(interferers.begin(), interferers.end(), b) !=
           interferers.end();
  };
  EXPECT_TRUE(interferes(5));          // (100, 0)
  EXPECT_TRUE(interferes(4 * 6 + 3));  // (60, 80)
  EXPECT_FALSE(interferes(6 + 5));     // (100, 20)
  const struct {
    double spacing, range;
  } grids[] = {{10, 50}, {15, 37.5}, {17.3, 41.9}, {25, 60}, {33.3, 75}};
  for (const auto& g : grids) {
    EXPECT_TRUE(MatchesBruteForce(Topology::Grid(12, g.spacing, g.range)))
        << g.spacing << " ft spacing, " << g.range << " ft range";
  }
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    EXPECT_TRUE(MatchesBruteForce(Topology::RandomUniform(150, 200, 50, seed)))
        << "seed " << seed;
  }
  // A 70-node line, 20 ft apart with a 50 ft range: depth 35.
  std::vector<Position> line;
  for (int i = 0; i < 70; ++i) line.push_back({20.0 * i, 0});
  const Topology deep(line, 50);
  EXPECT_TRUE(MatchesBruteForce(deep));
  EXPECT_EQ(deep.MaxDepth(), 35u);
  // A diagonal line spread wider than 4 cells per node, which widens the
  // cells.
  std::vector<Position> diagonal;
  for (int i = 0; i < 70; ++i) diagonal.push_back({35.0 * i, 35.0 * i});
  EXPECT_TRUE(MatchesBruteForce(Topology(diagonal, 50)));
}

TEST(LinkQualityTest, SymmetricAndBounded) {
  const Topology t = Topology::Grid(4);
  const LinkQualityMap q(t, 9);
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b : t.NeighborsOf(a)) {
      const double v = q.Quality(a, b);
      EXPECT_GT(v, 0.0);
      EXPECT_LE(v, 1.0);
      EXPECT_DOUBLE_EQ(v, q.Quality(b, a));
    }
  }
  EXPECT_THROW(q.Quality(0, 15), std::invalid_argument);
}

TEST(LinkQualityTest, CloserLinksTendToBeBetter) {
  const Topology t = Topology::Grid(4);
  const LinkQualityMap q(t, 9);
  // Averaged over all edges, 20 ft links beat 44.7 ft links.
  double near_sum = 0, far_sum = 0;
  int near_n = 0, far_n = 0;
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b : t.NeighborsOf(a)) {
      const double d = Distance(t.PositionOf(a), t.PositionOf(b));
      if (d < 25) {
        near_sum += q.Quality(a, b);
        ++near_n;
      } else if (d > 42) {
        far_sum += q.Quality(a, b);
        ++far_n;
      }
    }
  }
  ASSERT_GT(near_n, 0);
  ASSERT_GT(far_n, 0);
  EXPECT_GT(near_sum / near_n, far_sum / far_n);
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : topology_(Topology::Grid(3)),
        network_(topology_, RadioParams{}, ChannelParams{}, 42) {}

  Topology topology_;
  Network network_;
};

TEST_F(NetworkTest, BroadcastReachesAllAwakeNeighbors) {
  std::vector<NodeId> received;
  for (NodeId n : topology_.AllNodes()) {
    network_.SetReceiver(
        n,
        [&received, n](const Message&, bool addressed) {
          if (addressed) received.push_back(n);
        },
        Network::Hearing::kAddressedOnly);
  }
  Message msg;
  msg.mode = AddressMode::kBroadcast;
  msg.sender = 4;  // center of the 3x3 grid: everyone is in range
  msg.payload_bytes = 10;
  network_.Send(std::move(msg));
  network_.sim().RunUntil(1000);
  EXPECT_EQ(received.size(), topology_.NeighborsOf(4).size());
}

TEST_F(NetworkTest, UnicastAddressesOnlyTheDestination) {
  int addressed_count = 0, overheard_count = 0;
  for (NodeId n : topology_.AllNodes()) {
    network_.SetReceiver(
        n,
        [&](const Message&, bool addressed) {
          (addressed ? addressed_count : overheard_count)++;
        },
        Network::Hearing::kOverheard);
  }
  Message msg;
  msg.mode = AddressMode::kUnicast;
  msg.sender = 4;
  msg.destinations = {0};
  msg.payload_bytes = 10;
  network_.Send(std::move(msg));
  network_.sim().RunUntil(1000);
  EXPECT_EQ(addressed_count, 1);
  EXPECT_EQ(overheard_count,
            static_cast<int>(topology_.NeighborsOf(4).size()) - 1);
}

TEST_F(NetworkTest, SendToNonNeighborThrows) {
  const Topology line({{0, 0}, {40, 0}, {80, 0}}, 50.0);
  Network net(line, RadioParams{}, ChannelParams{}, 1);
  Message msg;
  msg.mode = AddressMode::kUnicast;
  msg.sender = 0;
  msg.destinations = {2};  // 80 ft away: out of range
  EXPECT_THROW(net.Send(std::move(msg)), std::invalid_argument);
}

TEST_F(NetworkTest, TransmitTimeChargedToSender) {
  Message msg;
  msg.mode = AddressMode::kBroadcast;
  msg.sender = 4;
  msg.cls = MessageClass::kResult;
  msg.payload_bytes = 13;
  network_.Send(std::move(msg));
  network_.sim().RunUntil(1000);
  const RadioParams radio;
  EXPECT_DOUBLE_EQ(network_.ledger().StatsOf(4).TotalTransmitMs(),
                   radio.TransmitDurationMs(13));
  EXPECT_EQ(network_.ledger().TotalSent(MessageClass::kResult), 1u);
}

TEST_F(NetworkTest, SendsFromOneNodeSerialize) {
  // Two back-to-back sends: the second starts after the first finishes.
  std::vector<SimTime> deliveries;
  network_.SetReceiver(
      0,
      [&](const Message&, bool addressed) {
        if (addressed) deliveries.push_back(network_.sim().Now());
      },
      Network::Hearing::kAddressedOnly);
  for (int i = 0; i < 2; ++i) {
    Message msg;
    msg.mode = AddressMode::kUnicast;
    msg.sender = 4;
    msg.destinations = {0};
    msg.payload_bytes = 20;
    network_.Send(std::move(msg));
  }
  network_.sim().RunUntil(1000);
  ASSERT_EQ(deliveries.size(), 2u);
  const RadioParams radio;
  const auto d =
      static_cast<SimTime>(std::ceil(radio.TransmitDurationMs(20)));
  EXPECT_EQ(deliveries[1] - deliveries[0], d);
}

TEST_F(NetworkTest, AsleepNodesReceiveAddressedButNotOverheard) {
  for (const Network::Hearing hearing : testing::kBothHearings) {
    Network network(topology_, RadioParams{}, ChannelParams{}, 42);
    int addressed = 0, overheard = 0;
    network.SetReceiver(
        0,
        [&](const Message&, bool was_addressed) {
          (was_addressed ? addressed : overheard)++;
        },
        hearing);
    network.SetAsleep(0, true);
    Message unicast;
    unicast.mode = AddressMode::kUnicast;
    unicast.sender = 4;
    unicast.destinations = {0};
    network.Send(std::move(unicast));
    Message other;
    other.mode = AddressMode::kUnicast;
    other.sender = 4;
    other.destinations = {8};
    network.Send(std::move(other));
    network.sim().RunUntil(1000);
    EXPECT_EQ(addressed, 1);  // low-power listening catches addressed traffic
    EXPECT_EQ(overheard, 0);  // but a sleeping radio cannot snoop
    EXPECT_EQ(network.ledger().StatsOf(0).received, 1u);
  }
}

TEST_F(NetworkTest, LosslessUnicastIsOverheardInAscendingIdOrder) {
  // Every awake neighbor of the sender is called once, in ascending id
  // order: the destination addressed, the others unaddressed; a sleeping
  // neighbor cannot overhear.
  std::vector<std::pair<NodeId, bool>> calls;
  for (NodeId n : topology_.AllNodes()) {
    network_.SetReceiver(
        n,
        [&calls, n](const Message&, bool addressed) {
          calls.emplace_back(n, addressed);
        },
        Network::Hearing::kOverheard);
  }
  network_.SetAsleep(2, true);
  Message msg;
  msg.mode = AddressMode::kUnicast;
  msg.sender = 4;
  msg.destinations = {5};
  msg.payload_bytes = 10;
  network_.Send(std::move(msg));
  network_.sim().RunUntil(1000);
  const std::vector<std::pair<NodeId, bool>> expected = {
      {0, false}, {1, false}, {3, false}, {5, true},
      {6, false}, {7, false}, {8, false}};
  EXPECT_EQ(calls, expected);
  EXPECT_EQ(network_.ledger().StatsOf(5).received, 1u);
  EXPECT_EQ(network_.ledger().StatsOf(3).received, 0u);
}

TEST_F(NetworkTest, ReplacingAReceiverUpdatesWhoOverhears) {
  std::vector<std::pair<NodeId, bool>> calls;
  const auto record = [&calls](NodeId n) {
    return [&calls, n](const Message&, bool addressed) {
      calls.emplace_back(n, addressed);
    };
  };
  for (NodeId n : topology_.AllNodes()) {
    network_.SetReceiver(n, record(n), Network::Hearing::kAddressedOnly);
  }
  const auto unicast = [this] {
    Message msg;
    msg.mode = AddressMode::kUnicast;
    msg.sender = 4;
    msg.destinations = {0};
    msg.payload_bytes = 10;
    network_.Send(std::move(msg));
    network_.sim().RunUntil(network_.sim().Now() + 100);
  };
  network_.SetReceiver(3, record(3), Network::Hearing::kOverheard);
  unicast();
  EXPECT_EQ(calls, (std::vector<std::pair<NodeId, bool>>{{0, true},
                                                         {3, false}}));
  calls.clear();
  network_.SetReceiver(3, record(3), Network::Hearing::kAddressedOnly);
  unicast();
  EXPECT_EQ(calls, (std::vector<std::pair<NodeId, bool>>{{0, true}}));
}

TEST_F(NetworkTest, AddressedOnlyReceiversKeepEveryLossDraw) {
  // On a lossy channel every neighbor draws its loss whether or not its
  // receiver hears overheard traffic, so the same seed drops the same
  // deliveries either way; an addressed-only receiver is just never called
  // unaddressed.
  struct Tally {
    std::vector<int> addressed = std::vector<int>(9, 0);
    int overheard = 0;
    std::uint64_t link_drops = 0;
  };
  const auto run = [this](Network::Hearing hearing) {
    Network network(topology_, RadioParams{}, ChannelParams{}, 42);
    network.SetDefaultLinkLoss(0.3);
    Tally tally;
    for (NodeId n : topology_.AllNodes()) {
      network.SetReceiver(
          n,
          [&tally, n](const Message&, bool addressed) {
            if (addressed) {
              ++tally.addressed[n];
            } else {
              ++tally.overheard;
            }
          },
          hearing);
    }
    for (int i = 0; i < 60; ++i) {
      Message msg;
      msg.sender = 4;
      msg.payload_bytes = 10;
      if (i % 3 == 2) {
        msg.mode = AddressMode::kMulticast;
        msg.destinations = {2, 6};
      } else {
        msg.mode = AddressMode::kUnicast;
        msg.destinations = {static_cast<NodeId>(i % 9 == 4 ? 0 : i % 9)};
      }
      network.Send(std::move(msg));
    }
    network.sim().RunUntil(10000);
    tally.link_drops = network.link_drops();
    return tally;
  };
  const Tally only = run(Network::Hearing::kAddressedOnly);
  const Tally all = run(Network::Hearing::kOverheard);
  EXPECT_GT(only.link_drops, 0u);
  EXPECT_EQ(only.link_drops, all.link_drops);
  EXPECT_EQ(only.addressed, all.addressed);
  EXPECT_EQ(only.overheard, 0);
  EXPECT_GT(all.overheard, 0);
}

TEST_F(NetworkTest, SleepTimeIsAccounted) {
  network_.sim().ScheduleAt(100, [&] { network_.SetAsleep(3, true); });
  network_.sim().ScheduleAt(600, [&] { network_.SetAsleep(3, false); });
  network_.sim().RunUntil(1000);
  EXPECT_DOUBLE_EQ(network_.ledger().StatsOf(3).sleep_ms, 500.0);
}

// Sleep spans used to reach the ledger only on wake-up, so a node still
// asleep when the run ended silently lost its final span and the summary
// under-reported sleep time.  `FinalizeAccounting` closes open spans at
// Now(); these tests pin that contract.
TEST_F(NetworkTest, FinalizeAccountingFlushesOpenSleepSpans) {
  network_.sim().ScheduleAt(200, [&] { network_.SetAsleep(3, true); });
  network_.sim().RunUntil(1000);
  // Still asleep at the end of the run: nothing booked yet.
  EXPECT_DOUBLE_EQ(network_.ledger().StatsOf(3).sleep_ms, 0.0);
  network_.FinalizeAccounting();
  EXPECT_DOUBLE_EQ(network_.ledger().StatsOf(3).sleep_ms, 800.0);
}

TEST_F(NetworkTest, FinalizeAccountingIsIdempotent) {
  network_.sim().ScheduleAt(200, [&] { network_.SetAsleep(3, true); });
  network_.sim().RunUntil(1000);
  network_.FinalizeAccounting();
  network_.FinalizeAccounting();
  EXPECT_DOUBLE_EQ(network_.ledger().StatsOf(3).sleep_ms, 800.0);
}

TEST_F(NetworkTest, AccountingResumesAfterFinalize) {
  // The span reopens at the finalize instant, so a later wake-up accounts
  // only the remainder — no double counting, no lost tail.
  network_.sim().ScheduleAt(200, [&] { network_.SetAsleep(3, true); });
  network_.sim().RunUntil(1000);
  network_.FinalizeAccounting();
  network_.sim().ScheduleAt(1500, [&] { network_.SetAsleep(3, false); });
  network_.sim().RunUntil(2000);
  EXPECT_DOUBLE_EQ(network_.ledger().StatsOf(3).sleep_ms, 1300.0);
}

TEST_F(NetworkTest, FinalizeAccountingCoversNodesFailedWhileAsleep) {
  // A crash does not close the sleep span (the radio is gone either way),
  // so without finalization the span would never be booked.
  network_.sim().ScheduleAt(100, [&] { network_.SetAsleep(5, true); });
  network_.sim().ScheduleAt(400, [&] { network_.FailNode(5); });
  network_.sim().RunUntil(1000);
  network_.FinalizeAccounting();
  EXPECT_DOUBLE_EQ(network_.ledger().StatsOf(5).sleep_ms, 900.0);
}

TEST(NetworkCollisionTest, CollisionsCauseRetransmissions) {
  const Topology t = Topology::Grid(3);
  ChannelParams channel;
  channel.collision_prob = 0.5;
  Network net(t, RadioParams{}, channel, 7);
  // Fire many concurrent broadcasts from different senders.
  for (NodeId n = 0; n < t.size(); ++n) {
    Message msg;
    msg.mode = AddressMode::kBroadcast;
    msg.sender = n;
    msg.payload_bytes = 24;
    net.Send(std::move(msg));
  }
  net.sim().RunUntil(10'000);
  EXPECT_GT(net.ledger().TotalRetransmissions(), 0u);
}

TEST(NetworkCollisionTest, LosslessChannelNeverRetransmits) {
  const Topology t = Topology::Grid(3);
  Network net(t, RadioParams{}, ChannelParams{}, 7);
  for (NodeId n = 0; n < t.size(); ++n) {
    Message msg;
    msg.mode = AddressMode::kBroadcast;
    msg.sender = n;
    msg.payload_bytes = 24;
    net.Send(std::move(msg));
  }
  net.sim().RunUntil(10'000);
  EXPECT_EQ(net.ledger().TotalRetransmissions(), 0u);
}

TEST(NetworkCollisionTest, OnlyFlightsWithinInterferenceRangeCollide) {
  // A line 40 ft apart with a 50 ft range: interference reaches 100 ft.
  std::vector<Position> line;
  for (int i = 0; i < 7; ++i) line.push_back({40.0 * i, 0});
  const Topology t(line, 50);
  const auto retransmissions = [&](NodeId a, NodeId b) {
    ChannelParams channel;
    channel.collision_prob = 0.99;
    Network net(t, RadioParams{}, channel, 7);
    for (const NodeId sender : {a, b}) {
      Message msg;
      msg.mode = AddressMode::kBroadcast;
      msg.sender = sender;
      msg.payload_bytes = 24;
      net.Send(std::move(msg));
    }
    net.sim().RunUntil(10'000);
    return net.ledger().TotalRetransmissions();
  };
  EXPECT_GT(retransmissions(0, 2), 0u);  // 80 ft apart: they collide
  EXPECT_EQ(retransmissions(0, 3), 0u);  // 120 ft apart: they never do
}

TEST(LedgerTest, AverageTransmissionTimeExcludesBaseStation) {
  RadioLedger ledger(3);
  ledger.ChargeTransmit(0, MessageClass::kResult, 500.0, false);
  ledger.ChargeTransmit(1, MessageClass::kResult, 100.0, false);
  ledger.ChargeTransmit(2, MessageClass::kResult, 300.0, false);
  // Sensors 1 and 2 average (100+300)/2 over 1000 ms.
  EXPECT_DOUBLE_EQ(ledger.AverageTransmissionTime(1000), 0.2);
  EXPECT_NEAR(ledger.AverageTransmissionTime(1000, true), 0.3, 1e-12);
}

TEST(LedgerTest, RetransmissionsTrackedSeparately) {
  RadioLedger ledger(2);
  ledger.ChargeTransmit(1, MessageClass::kResult, 10.0, false);
  ledger.ChargeTransmit(1, MessageClass::kResult, 10.0, true);
  EXPECT_EQ(ledger.TotalSent(MessageClass::kResult), 1u);
  EXPECT_EQ(ledger.TotalRetransmissions(), 1u);
  EXPECT_DOUBLE_EQ(ledger.StatsOf(1).TotalTransmitMs(), 20.0);
  EXPECT_DOUBLE_EQ(ledger.StatsOf(1).retransmit_ms, 10.0);
}

TEST(NetworkTest2, MaintenanceBeaconsFlowPeriodically) {
  const Topology t = Topology::Grid(3);
  Network net(t, RadioParams{}, ChannelParams{}, 3);
  net.StartMaintenanceBeacons(1000, 6);
  net.sim().RunUntil(10'000);
  const auto beacons = net.ledger().TotalSent(MessageClass::kMaintenance);
  // 9 nodes, one beacon per second for 10 s (staggered start).
  EXPECT_GE(beacons, 80u);
  EXPECT_LE(beacons, 95u);
}

}  // namespace
}  // namespace ttmqo
