// Tests for the observability layer: metrics registry, epoch sampler,
// the network's trace sink, decision tracing, and the JSONL trace
// round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/bs/rewriter.h"
#include "json_checker.h"
#include "metrics/epoch_sampler.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "net/network.h"
#include "query/parser.h"
#include "util/tracing.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

namespace ttmqo {
namespace {

// The mini JSON validator lives in json_checker.h, shared with the obs and
// exporter tests.
using ttmqo::testing::IsValidJson;

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------- registry --

TEST(RegistryTest, CountersAccumulateAndIgnoreNegativeDeltas) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("messages_total");
  c.Add(1.0);
  c.Add(4.0);
  c.Add(-10.0);  // clamped: counters never go down
  EXPECT_DOUBLE_EQ(c.Value(), 5.0);
  // Same identity returns the same instrument.
  EXPECT_EQ(&registry.GetCounter("messages_total"), &c);
}

TEST(RegistryTest, LabelsDistinguishAndNormalize) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("tx", {{"node", "1"}, {"class", "result"}});
  Counter& b = registry.GetCounter("tx", {{"class", "result"}, {"node", "1"}});
  Counter& other = registry.GetCounter("tx", {{"node", "2"}, {"class", "result"}});
  EXPECT_EQ(&a, &b);  // label order must not matter
  EXPECT_NE(&a, &other);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RegistryTest, LabelValueCannotForgeASecondLabel) {
  MetricsRegistry registry;
  // Unescaped, the value 1",b="2 would spell the key of {a=1, b=2}.
  Counter& forged = registry.GetCounter("m_total", {{"a", "1\",b=\"2"}});
  Counter& pair = registry.GetCounter("m_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_NE(&forged, &pair);
  EXPECT_EQ(registry.size(), 2u);
  forged.Add(1.0);
  pair.Add(2.0);
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_TRUE(IsValidJson(out.str())) << out.str();
}

TEST(RegistryTest, TypeMismatchThrows) {
  MetricsRegistry registry;
  registry.GetCounter("x");
  EXPECT_THROW(registry.GetGauge("x"), std::invalid_argument);
}

TEST(RegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("queue_depth");
  g.Set(7.0);
  g.Add(-3.0);
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
}

TEST(RegistryTest, JsonExportParsesAndContainsEverything) {
  MetricsRegistry registry;
  registry.GetCounter("msgs_total", {{"mode", "ttmqo"}}).Add(3.0);
  registry.GetGauge("tx_fraction").Set(0.125);

  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_EQ(json,
            "{\"counters\":{\"msgs_total{mode=\\\"ttmqo\\\"}\":3},"
            "\"gauges\":{\"tx_fraction\":0.125}}");
}

// ---------------------------------------------------------- tracing --

TEST(TracingTest, JsonEscapingHandlesSpecials) {
  std::ostringstream out;
  WriteJsonString(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
  EXPECT_TRUE(IsValidJson(out.str()));
}

TEST(TracingTest, TraceEventSerializesAllValueTypes) {
  TraceEvent event("test.kind");
  event.time = 42;
  event.With("i", std::int64_t{7})
      .With("d", 0.5)
      .With("b", true)
      .With("s", std::string("x\"y"))
      .With("l", std::vector<std::int64_t>{3, 0})
      .With("e", std::vector<std::int64_t>{});
  std::ostringstream out;
  WriteTraceEventJson(out, event);
  const std::string json = out.str();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"event\":\"test.kind\""), std::string::npos);
  EXPECT_NE(json.find("\"t\":42"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"x\\\"y\""), std::string::npos);
  EXPECT_NE(json.find("\"l\":[3,0],\"e\":[]}"), std::string::npos);
}

TEST(TracingTest, NonFiniteDoublesBecomeNull) {
  TraceEvent event("test.inf");
  event.With("v", std::numeric_limits<double>::infinity());
  std::ostringstream out;
  WriteTraceEventJson(out, event);
  EXPECT_NE(out.str().find("\"v\":null"), std::string::npos);
  EXPECT_TRUE(IsValidJson(out.str()));
}

// --------------------------------------------------- network trace sink --

TEST(NetworkTraceSinkTest, RadioEventsMatchTheLedgerUntilTheSinkIsRemoved) {
  const Topology topology = Topology::Grid(3);
  ChannelParams channel;
  channel.collision_prob = 0.99;  // concurrent sends almost surely collide
  Network network(topology, RadioParams{}, channel, 11);
  CollectingTraceSink sink;
  network.SetTraceSink(&sink);
  EXPECT_TRUE(network.tracing());

  for (NodeId sender : topology.AllNodes()) {
    Message msg;
    msg.mode = AddressMode::kBroadcast;
    msg.sender = sender;
    msg.payload_bytes = 16;
    network.Send(std::move(msg));
  }
  network.FailNode(8);
  network.sim().RunUntil(60'000);

  // Every attempt, first or retried, is one "tx" line.
  EXPECT_EQ(sink.CountKind("tx"), network.ledger().TotalMessages() +
                                      network.ledger().TotalRetransmissions());
  EXPECT_GT(sink.CountKind("drop"), 0u);  // certain collision exhausts retries
  EXPECT_EQ(sink.CountKind("fail"), 1u);

  // Without a sink the network emits nothing, radio or forwarded.
  network.SetTraceSink(nullptr);
  EXPECT_FALSE(network.tracing());
  const std::size_t before = sink.events().size();
  Message msg;
  msg.mode = AddressMode::kBroadcast;
  msg.sender = 1;
  msg.payload_bytes = 16;
  network.Send(std::move(msg));
  network.FailNode(7);
  network.Emit(TraceEvent("test.forwarded"));
  network.sim().RunUntil(120'000);
  EXPECT_EQ(sink.events().size(), before);
}

// ------------------------------------------------------ epoch sampler --

TEST(EpochSamplerTest, OneRowPerEpochAndDeltasSumToLedger) {
  const Topology topology = Topology::Grid(3);
  Network network(topology, RadioParams{}, ChannelParams{}, 5);
  network.StartMaintenanceBeacons(1000, 6);

  EpochSampler sampler;
  sampler.Start(network, 2048);
  EXPECT_THROW(sampler.Start(network, 2048), std::invalid_argument);

  network.sim().RunUntil(5 * 2048);
  ASSERT_EQ(sampler.rows().size(), 5u);

  double tx_sum = 0.0;
  std::uint64_t msgs = 0;
  for (std::size_t i = 0; i < sampler.rows().size(); ++i) {
    const EpochRow& row = sampler.rows()[i];
    EXPECT_EQ(row.epoch, static_cast<std::int64_t>(i));
    EXPECT_EQ(row.time, static_cast<SimTime>((i + 1) * 2048));
    EXPECT_EQ(row.node_tx_ms.size(), topology.size());
    tx_sum += row.tx_ms;
    for (std::uint64_t n : row.sent_by_class) msgs += n;
  }
  // Beacons flow in every window, so the deltas are non-trivial and total
  // to the cumulative ledger figures.
  EXPECT_GT(msgs, 0u);
  double ledger_tx = 0.0;
  for (NodeId n = 0; n < topology.size(); ++n) {
    ledger_tx += network.ledger().StatsOf(n).TotalTransmitMs();
  }
  EXPECT_NEAR(tx_sum, ledger_tx, 1e-9);
  EXPECT_EQ(msgs, network.ledger().TotalMessages());
}

// The one epoch export is the JSON array the metrics document embeds.
TEST(EpochSamplerTest, CsvAndJsonlExports) {
  const Topology topology = Topology::Grid(3);
  Network network(topology, RadioParams{}, ChannelParams{}, 5);
  network.StartMaintenanceBeacons(500, 6);
  EpochSampler sampler;
  sampler.Start(network, 1024);
  network.sim().RunUntil(3 * 1024);

  std::ostringstream array;
  sampler.WriteJsonArray(array);
  const std::string json = array.str();
  EXPECT_TRUE(IsValidJson(json)) << json;
  // One object per epoch, each with the per-node breakdown.
  ASSERT_EQ(sampler.rows().size(), 3u);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  const auto occurrences = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("{\"epoch\":"), 3u);
  EXPECT_EQ(occurrences("\"node_tx_ms\":["), 3u);
}

// -------------------------------------------------- decision tracing --

TEST(DecisionTraceTest, Tier1InsertAndTerminateEmitStructuredEvents) {
  const Topology topology = Topology::Grid(4);
  const CostModel cost(topology, RadioParams{});
  BaseStationOptimizer optimizer(cost, {});
  CollectingTraceSink sink;
  optimizer.SetTraceSink(&sink);

  const Query q1 = ParseQuery(
      1, "SELECT light WHERE light < 600 EPOCH DURATION 4096");
  const Query q2 = ParseQuery(
      2, "SELECT light WHERE light < 500 EPOCH DURATION 8192");
  optimizer.InsertUserQuery(q1);
  optimizer.InsertUserQuery(q2);
  EXPECT_EQ(sink.CountKind("tier1.insert"), 2u);
  EXPECT_GE(sink.CountKind("tier1.benefit_estimate"), 1u);

  optimizer.TerminateUserQuery(1);
  EXPECT_EQ(sink.CountKind("tier1.terminate"), 1u);

  // The decision counters agree with the event stream (termination may
  // rebuild the surviving bundle, which counts as a further insert).
  const auto& d = optimizer.decision_stats();
  EXPECT_EQ(d.covered + d.merged + d.standalone,
            sink.CountKind("tier1.insert"));
  EXPECT_EQ(d.retired + d.rebuilt + d.kept, sink.CountKind("tier1.terminate"));

  // Every insert event carries an action field with a known value.
  for (const TraceEvent& event : sink.events()) {
    if (event.kind != "tier1.insert") continue;
    const auto it = std::find_if(
        event.fields.begin(), event.fields.end(),
        [](const auto& f) { return f.first == "action"; });
    ASSERT_NE(it, event.fields.end());
    const std::string& action = std::get<std::string>(it->second);
    EXPECT_TRUE(action == "covered" || action == "merged" ||
                action == "standalone")
        << action;
  }
}

// --------------------------------------------- end-to-end round trip --

TEST(ObservabilityIntegrationTest, OneTraceSinkCarriesEveryLayer) {
  // `obs.trace` alone receives radio, fault, decision and run events.
  std::ostringstream trace_stream;
  JsonlTraceWriter writer(trace_stream);
  RunConfig config;
  config.grid_side = 4;
  config.duration_ms = 6 * 4096;
  config.seed = 3;
  config.mode = OptimizationMode::kTwoTier;
  config.faults.AddOutage(5, 4096, 3 * 4096);
  config.obs.trace = &writer;
  RunExperiment(config, StaticSchedule(WorkloadC()));

  const std::string text = trace_stream.str();
  for (const char* kind :
       {"tx", "down", "fault.down", "tier1.insert", "tier2.epoch_close",
        "engine.user_submit", "run.start", "run.end"}) {
    EXPECT_NE(text.find("{\"event\":\"" + std::string(kind) + "\""),
              std::string::npos)
        << "no " << kind << " line";
  }
}

TEST(ObservabilityIntegrationTest, RunExperimentProducesMetricsAndTrace) {
  std::ostringstream trace_stream;
  JsonlTraceWriter writer(trace_stream);
  MetricsRegistry registry;
  EpochSampler sampler;

  RunConfig config;
  config.grid_side = 4;
  config.duration_ms = 6 * 4096;
  config.seed = 3;
  config.mode = OptimizationMode::kTwoTier;
  config.channel.collision_prob = 0.05;  // so retransmissions are counted
  config.obs.registry = &registry;
  config.obs.labels = {{"mode", "ttmqo"}};
  config.obs.trace = &writer;
  config.obs.sampler = &sampler;
  config.obs.sample_period_ms = 4096;

  const RunResult run = RunExperiment(config, StaticSchedule(WorkloadC()));
  EXPECT_GT(run.summary.total_messages, 0u);
  EXPECT_GT(run.summary.retransmissions, 0u);

  // Every trace line is standalone JSON; the stream brackets the run and
  // contains at least one tier-1 rewriter decision.
  const std::string text = trace_stream.str();
  const auto lines = Lines(text);
  ASSERT_GT(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(IsValidJson(line)) << line;
  }
  EXPECT_NE(text.find("\"event\":\"run.start\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"run.end\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"tier1.insert\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"tx\""), std::string::npos);

  // The registry holds per-node/per-class radio counters, the run summary,
  // and the tier-1 decision counts, all labeled with the run mode.
  std::ostringstream json;
  registry.WriteJson(json);
  EXPECT_TRUE(IsValidJson(json.str())) << json.str();
  const std::string metrics = json.str();
  EXPECT_NE(metrics.find("net_tx_total{"), std::string::npos);
  EXPECT_NE(metrics.find("class=\\\"result\\\""), std::string::npos);
  EXPECT_NE(metrics.find("node=\\\"1\\\""), std::string::npos);
  EXPECT_NE(metrics.find("mode=\\\"ttmqo\\\""), std::string::npos);
  EXPECT_NE(metrics.find("run_avg_transmission_fraction"), std::string::npos);
  EXPECT_NE(metrics.find("tier1_decisions_total"), std::string::npos);

  // The sampler produced one row per sampling epoch.
  EXPECT_EQ(sampler.rows().size(),
            static_cast<std::size_t>(config.duration_ms / 4096));

  // The registry totals agree with the run summary: both read the ledger.
  double tx_total = 0.0;
  double tx_ms = 0.0;
  double retx_total = 0.0;
  double retx_ms = 0.0;
  for (NodeId n = 0; n < 16; ++n) {
    const MetricLabels node = {{"mode", "ttmqo"}, {"node", std::to_string(n)}};
    for (std::size_t cls = 0; cls < kNumMessageClasses; ++cls) {
      MetricLabels with_class = node;
      const auto name = MessageClassName(static_cast<MessageClass>(cls));
      with_class.emplace_back("class", std::string(name));
      tx_total += registry.GetCounter("net_tx_total", with_class).Value();
      tx_ms += registry.GetCounter("net_tx_ms_total", with_class).Value();
    }
    retx_total += registry.GetCounter("net_retx_total", node).Value();
    retx_ms += registry.GetCounter("net_retx_ms_total", node).Value();
  }
  EXPECT_EQ(tx_total, static_cast<double>(run.summary.total_messages));
  EXPECT_EQ(retx_total, static_cast<double>(run.summary.retransmissions));
  // Same addends, different summation order.
  EXPECT_NEAR(tx_ms + retx_ms, run.summary.total_transmit_ms, 1e-9);
}

}  // namespace
}  // namespace ttmqo
