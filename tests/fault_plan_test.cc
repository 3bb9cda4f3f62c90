// The fault-injection subsystem: plan validation, outage/link-loss
// semantics on the network, fault observability (trace events, the
// ledger's outage counts, and the registry's fault counters), the
// alive-at oracle, and the random plan generator.  Also covers the
// runner's up-front fault validation and the retry-exhaustion accounting
// invariant (a drop is charged exactly once, consistently across the
// ledger, the registry, and the epoch sampler).
#include <gtest/gtest.h>

#include <sstream>

#include "fault/fault_plan.h"
#include "metrics/epoch_sampler.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "net/network.h"
#include "query/parser.h"
#include "test_helpers.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

namespace ttmqo {
namespace {

Network MakeNetwork(const Topology& topology, std::uint64_t seed = 1) {
  return Network(topology, RadioParams{}, ChannelParams{}, seed);
}

// --- Validation ---------------------------------------------------------

TEST(FaultPlanValidateTest, RejectsBaseStationFaults) {
  const Topology topology = Topology::Grid(3);
  EXPECT_THROW(FaultPlan().AddCrash(kBaseStationId, 100).Validate(
                   topology, 10000),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan().AddOutage(kBaseStationId, 100, 200).Validate(
                   topology, 10000),
               std::invalid_argument);
}

TEST(FaultPlanValidateTest, RejectsOutOfRangeNodesAndWindows) {
  const Topology topology = Topology::Grid(3);
  EXPECT_THROW(FaultPlan().AddCrash(99, 100).Validate(topology, 10000),
               std::invalid_argument);
  // Crash outside the run.
  EXPECT_THROW(FaultPlan().AddCrash(4, 20000).Validate(topology, 10000),
               std::invalid_argument);
  // Inverted outage window.
  EXPECT_THROW(FaultPlan().AddOutage(4, 500, 400).Validate(topology, 10000),
               std::invalid_argument);
}

TEST(FaultPlanValidateTest, RejectsDuplicateCrashAndOverlappingOutages) {
  const Topology topology = Topology::Grid(3);
  EXPECT_THROW(
      FaultPlan().AddCrash(4, 100).AddCrash(4, 200).Validate(topology, 10000),
      std::invalid_argument);
  EXPECT_THROW(FaultPlan()
                   .AddOutage(4, 100, 500)
                   .AddOutage(4, 400, 800)
                   .Validate(topology, 10000),
               std::invalid_argument);
  // An outage scheduled at or after the node's crash can never recover.
  EXPECT_THROW(FaultPlan()
                   .AddCrash(4, 100)
                   .AddOutage(4, 200, 300)
                   .Validate(topology, 10000),
               std::invalid_argument);
  // Distinct nodes may overlap freely.
  EXPECT_NO_THROW(FaultPlan()
                      .AddOutage(4, 100, 500)
                      .AddOutage(5, 100, 500)
                      .Validate(topology, 10000));
}

TEST(FaultPlanValidateTest, RejectsBadLinkEvents) {
  const Topology topology = Topology::Grid(3);
  // Adjacent grid nodes are radio neighbors; opposite corners (2 and 6,
  // ~57 feet apart) are out of the 50-foot range.
  EXPECT_NO_THROW(
      FaultPlan().AddLinkLoss(1, 2, 0.5).Validate(topology, 10000));
  EXPECT_THROW(FaultPlan().AddLinkLoss(2, 6, 0.5).Validate(topology, 10000),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan().AddLinkLoss(1, 2, 1.5).Validate(topology, 10000),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan().SetDefaultLinkLoss(-0.1).Validate(topology, 10000),
               std::invalid_argument);
}

TEST(FaultPlanValidateTest, RejectsNegativeTimes) {
  // A negative time must fail validation, not later inside the simulator
  // ("cannot schedule in the past").
  const Topology topology = Topology::Grid(3);
  EXPECT_THROW(FaultPlan().AddCrash(4, -5).Validate(topology, 10000),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan().AddOutage(4, -5, 100).Validate(topology, 10000),
               std::invalid_argument);
  EXPECT_THROW(
      FaultPlan().AddPartition({4, 5}, -5, 100).Validate(topology, 10000),
      std::invalid_argument);
  EXPECT_THROW(
      FaultPlan().AddLinkLoss(1, 2, 0.5, -5, 100).Validate(topology, 10000),
      std::invalid_argument);
  // Time zero is the first valid instant.
  EXPECT_NO_THROW(FaultPlan()
                      .AddCrash(4, 0)
                      .AddOutage(5, 0, 100)
                      .AddLinkLoss(1, 2, 0.5, 0, 100)
                      .Validate(topology, 10000));
}

TEST(FaultPlanValidateTest, RunnerValidatesUpFront) {
  // The runner used to schedule raw FailNode lambdas that threw from inside
  // the event loop; now a bad schedule fails before the run starts.
  const auto schedule =
      StaticSchedule({ParseQuery(1, "SELECT light EPOCH DURATION 4096")});
  RunConfig config;
  config.duration_ms = 8 * 4096;
  config.faults.AddCrash(kBaseStationId, 1000);
  EXPECT_THROW(RunExperiment(config, schedule), std::invalid_argument);

  config.faults = FaultPlan().AddCrash(5, 1000).AddCrash(5, 2000);
  EXPECT_THROW(RunExperiment(config, schedule), std::invalid_argument);

  config.faults = FaultPlan().AddCrash(5, 1000);
  EXPECT_NO_THROW(RunExperiment(config, schedule));
}

// --- Network semantics --------------------------------------------------

TEST(NetworkOutageTest, DownNodesNeitherSendNorReceiveUntilRecovery) {
  const Topology topology = Topology::Grid(3);
  for (const Network::Hearing hearing : testing::kBothHearings) {
    Network network = MakeNetwork(topology);
    int received = 0;
    network.SetReceiver(
        4, [&received](const Message&, bool) { ++received; }, hearing);

    network.SetDown(4);
    EXPECT_TRUE(network.IsDown(4));
    EXPECT_FALSE(network.IsFailed(4));  // silent: no failure signal
    EXPECT_EQ(network.NumDown(), 1u);

    Message msg;
    msg.mode = AddressMode::kUnicast;
    msg.sender = 0;
    msg.destinations = {4};
    network.Send(std::move(msg));
    network.sim().RunUntil(100);
    EXPECT_EQ(received, 0);
    EXPECT_EQ(network.ledger().StatsOf(4).received, 0u);

    network.Recover(4);
    EXPECT_FALSE(network.IsDown(4));
    EXPECT_EQ(network.NumDown(), 0u);
    Message again;
    again.mode = AddressMode::kUnicast;
    again.sender = 0;
    again.destinations = {4};
    network.Send(std::move(again));
    network.sim().RunUntil(200);
    EXPECT_EQ(received, 1);
    EXPECT_EQ(network.ledger().StatsOf(4).received, 1u);

    EXPECT_THROW(network.SetDown(kBaseStationId), std::invalid_argument);
  }
}

TEST(NetworkLinkLossTest, LossyLinksDropDeliveriesIndependently) {
  const Topology topology = Topology::Grid(3);
  Network lossless = MakeNetwork(topology);
  Network lossy = MakeNetwork(topology);
  lossy.SetDefaultLinkLoss(0.5);

  for (Network* network : {&lossless, &lossy}) {
    int received = 0;
    network->SetReceiver(
        1, [&received](const Message&, bool) { ++received; },
        Network::Hearing::kAddressedOnly);
    for (int i = 0; i < 200; ++i) {
      Message msg;
      msg.mode = AddressMode::kUnicast;
      msg.sender = 0;
      msg.destinations = {1};
      network->sim().ScheduleAt(i * 50, [network, m = std::move(msg)]() {
        Message copy = m;
        network->Send(std::move(copy));
      });
    }
    network->sim().RunUntil(200 * 50 + 100);
    if (network == &lossless) {
      EXPECT_EQ(network->link_drops(), 0u);
      EXPECT_EQ(received, 200);
    } else {
      // ~50% of 200 deliveries; generous deterministic-seed bounds.
      EXPECT_GT(network->link_drops(), 50u);
      EXPECT_LT(network->link_drops(), 150u);
      EXPECT_EQ(received, 200 - static_cast<int>(network->link_drops()));
    }
  }
}

TEST(NetworkLinkLossTest, PerLinkOverrideAndClear) {
  const Topology topology = Topology::Grid(3);
  Network network = MakeNetwork(topology);
  network.SetDefaultLinkLoss(0.25);
  network.SetLinkLoss(0, 1, 0.9);
  EXPECT_DOUBLE_EQ(network.LinkLossOf(1, 0), 0.9);  // symmetric
  EXPECT_DOUBLE_EQ(network.LinkLossOf(0, 3), 0.25);
  network.ClearLinkLoss(0, 1);
  EXPECT_DOUBLE_EQ(network.LinkLossOf(0, 1), 0.25);
}

// --- Observability ------------------------------------------------------

TEST(FaultPlanScheduleTest, EmitsTraceEventsAndMetrics) {
  const Topology topology = Topology::Grid(3);
  Network network = MakeNetwork(topology);
  CollectingTraceSink trace;

  FaultPlan plan;
  plan.AddCrash(8, 5000)
      .AddOutage(4, 1000, 3000)
      .AddLinkLoss(1, 2, 0.5, 500, 1500)
      .AddPartition({5, 6}, 2000, 4000);
  plan.Validate(topology, 10000);
  network.SetTraceSink(&trace);
  plan.ScheduleOn(network);
  network.sim().RunUntil(10000);

  EXPECT_EQ(trace.CountKind("fault.crash"), 1u);
  EXPECT_EQ(trace.CountKind("fault.down"), 1u);
  EXPECT_EQ(trace.CountKind("fault.recover"), 1u);
  EXPECT_EQ(trace.CountKind("fault.link_degrade"), 1u);
  EXPECT_EQ(trace.CountKind("fault.link_restore"), 1u);
  EXPECT_EQ(trace.CountKind("fault.partition"), 1u);
  EXPECT_EQ(trace.CountKind("fault.heal"), 1u);

  EXPECT_TRUE(network.IsFailed(8));
  EXPECT_FALSE(network.IsDown(4));  // recovered
  // One plain outage + two partitioned nodes began and ended.
  std::uint64_t outages = 0;
  std::uint64_t recoveries = 0;
  for (NodeId node = 0; node < topology.size(); ++node) {
    outages += network.ledger().StatsOf(node).outages;
    recoveries += network.ledger().StatsOf(node).recoveries;
  }
  EXPECT_EQ(outages, 3u);
  EXPECT_EQ(recoveries, 3u);
  EXPECT_EQ(network.ledger().StatsOf(4).outages, 1u);
  EXPECT_EQ(network.NumFailed(), 1u);
}

// --- AliveAt oracle -----------------------------------------------------

TEST(FaultPlanTest, AliveAtTracksCrashesOutagesAndPartitions) {
  FaultPlan plan;
  plan.AddCrash(3, 5000).AddOutage(4, 1000, 3000).AddPartition({5}, 2000,
                                                               4000);
  EXPECT_TRUE(plan.AliveAt(3, 4999));
  EXPECT_FALSE(plan.AliveAt(3, 5000));
  EXPECT_FALSE(plan.AliveAt(3, 99999));
  EXPECT_TRUE(plan.AliveAt(4, 999));
  EXPECT_FALSE(plan.AliveAt(4, 1000));
  EXPECT_FALSE(plan.AliveAt(4, 2999));
  EXPECT_TRUE(plan.AliveAt(4, 3000));
  EXPECT_FALSE(plan.AliveAt(5, 2500));
  EXPECT_TRUE(plan.AliveAt(5, 4000));
  EXPECT_TRUE(plan.AliveAt(6, 0));
}

// --- Random plans -------------------------------------------------------

TEST(FaultPlanTest, RandomTransientIsDeterministicAndBounded) {
  const Topology topology = Topology::Grid(6);
  RandomFaultParams params;
  params.max_outages = 10;
  params.max_down_fraction = 0.2;
  const SimDuration duration = 40 * 4096;

  const FaultPlan a =
      FaultPlan::RandomTransient(params, topology.size(), duration, 42);
  const FaultPlan b =
      FaultPlan::RandomTransient(params, topology.size(), duration, 42);
  ASSERT_EQ(a.outages().size(), b.outages().size());
  for (std::size_t i = 0; i < a.outages().size(); ++i) {
    EXPECT_EQ(a.outages()[i].node, b.outages()[i].node);
    EXPECT_EQ(a.outages()[i].from, b.outages()[i].from);
    EXPECT_EQ(a.outages()[i].until, b.outages()[i].until);
  }
  const FaultPlan other =
      FaultPlan::RandomTransient(params, topology.size(), duration, 43);
  EXPECT_FALSE(other.outages().empty());

  // Victim count respects the fraction cap; every plan validates.
  const std::size_t cap = static_cast<std::size_t>(
      params.max_down_fraction * static_cast<double>(topology.size() - 1));
  EXPECT_LE(a.outages().size(), cap);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const FaultPlan plan =
        FaultPlan::RandomTransient(params, topology.size(), duration, seed);
    EXPECT_NO_THROW(plan.Validate(topology, duration));
    for (const OutageEvent& outage : plan.outages()) {
      EXPECT_GE(outage.until - outage.from, RandomFaultParams::kMinOutageMs);
      EXPECT_LE(outage.until - outage.from, RandomFaultParams::kMaxOutageMs);
      EXPECT_LE(outage.until, duration);
    }
  }
}

TEST(FaultPlanTest, WriteJsonProducesExpectedShape) {
  FaultPlan plan;
  plan.AddCrash(3, 5000).AddOutage(4, 1000, 3000).SetDefaultLinkLoss(0.1);
  std::ostringstream out;
  plan.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"crashes\""), std::string::npos);
  EXPECT_NE(json.find("\"outages\""), std::string::npos);
  EXPECT_NE(json.find("\"default_link_loss\":0.1"), std::string::npos);
}

// --- Retry-exhaustion accounting (drop charged exactly once) ------------

TEST(FaultAccountingTest, DropsAgreeAcrossLedgerRegistryAndSampler) {
  // A harsh channel forces retry exhaustion; the same drop count must be
  // visible through every accounting surface.
  const auto schedule = StaticSchedule(
      {ParseQuery(1, "SELECT light WHERE light > 300 EPOCH DURATION 4096")});
  RunConfig config;
  config.grid_side = 4;
  config.mode = OptimizationMode::kBaseline;
  config.duration_ms = 16 * 4096;
  config.seed = 11;
  config.channel.collision_prob = 0.55;

  MetricsRegistry registry;
  EpochSampler sampler;
  CollectingTraceSink trace;
  config.obs.registry = &registry;
  config.obs.sampler = &sampler;
  config.obs.trace = &trace;
  const RunResult run = RunExperiment(config, schedule);
  const std::size_t drops = trace.CountKind("drop");

  ASSERT_GT(drops, 0u) << "channel not harsh enough to exhaust retries";

  double registry_drops = 0.0;
  for (NodeId node = 0; node < 16; ++node) {
    registry_drops +=
        registry.GetCounter("net_drops_total", {{"node", std::to_string(node)}})
            .Value();
  }
  EXPECT_DOUBLE_EQ(registry_drops, static_cast<double>(drops));

  std::uint64_t sampled_drops = 0;
  for (const EpochRow& row : sampler.rows()) sampled_drops += row.drops;
  EXPECT_EQ(sampled_drops, drops);

  // Dropped messages were still charged as transmission attempts.
  EXPECT_GT(run.summary.retransmissions, 0u);
}

TEST(FaultAccountingTest, RegistryFaultCountersMatchPlanAndObserver) {
  // The registry's fault counters come from the ledger at run end; they
  // must agree with the plan and with the radio events the run traced.
  const auto schedule = StaticSchedule(
      {ParseQuery(1, "SELECT light WHERE light > 300 EPOCH DURATION 4096")});
  RunConfig config;
  config.grid_side = 4;
  config.mode = OptimizationMode::kTwoTier;
  config.duration_ms = 16 * 4096;
  config.seed = 5;
  config.faults.AddCrash(7, 20000)
      .AddOutage(5, 8192, 24576)
      .AddOutage(9, 30000, 40000)
      .SetDefaultLinkLoss(0.1);

  MetricsRegistry registry;
  CollectingTraceSink trace;
  config.obs.registry = &registry;
  config.obs.trace = &trace;
  RunExperiment(config, schedule);

  // Every planned outage ends inside the run, so each one recovers.
  const auto crashes = static_cast<double>(config.faults.crashes().size());
  const auto outages = static_cast<double>(config.faults.outages().size());
  EXPECT_EQ(registry.GetCounter("net_node_failures_total").Value(), crashes);
  EXPECT_EQ(registry.GetCounter("net_node_down_total").Value(), outages);
  EXPECT_EQ(registry.GetCounter("net_node_recovered_total").Value(), outages);
  EXPECT_EQ(static_cast<double>(trace.CountKind("fail")), crashes);
  EXPECT_EQ(static_cast<double>(trace.CountKind("down")), outages);
  EXPECT_EQ(static_cast<double>(trace.CountKind("recover")), outages);

  double link_drops = 0.0;
  for (NodeId node = 0; node < 16; ++node) {
    link_drops += registry
                      .GetCounter("net_link_drops_total",
                                  {{"node", std::to_string(node)}})
                      .Value();
  }
  ASSERT_GT(trace.CountKind("linkdrop"), 0u) << "10% link loss dropped nothing";
  EXPECT_EQ(link_drops, static_cast<double>(trace.CountKind("linkdrop")));
}

}  // namespace
}  // namespace ttmqo
