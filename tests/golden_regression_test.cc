// Golden-run regression suite: ten pinned scenarios whose canonical
// fingerprints (see sweep/fingerprint.h) are stored under tests/golden/,
// plus the JSONL trace of one of them.
// Any change to simulated behavior — row counts, message totals,
// transmission time, delivery completeness — fails here with a diffable
// before/after, so refactors that were supposed to be behavior-preserving
// prove it and intentional changes update the goldens consciously.
//
// To refresh after an intentional behavior change:
//
//   TTMQO_UPDATE_GOLDEN=1 ctest --test-dir build -R GoldenRegression
//
// then review `git diff tests/golden/` line by line before committing —
// every changed line is a behavior change you are signing off on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/innet/innet_engine.h"
#include "fault/fault_plan.h"
#include "metrics/run_summary.h"
#include "metrics/trace.h"
#include "query/parser.h"
#include "routing/routing_tree.h"
#include "sensing/field_model.h"
#include "sweep/fingerprint.h"
#include "util/tracing.h"
#include "workload/generator.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

#ifndef TTMQO_GOLDEN_DIR
#error "TTMQO_GOLDEN_DIR must point at tests/golden (set in CMakeLists)"
#endif

namespace ttmqo {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(TTMQO_GOLDEN_DIR) + "/" + name;
}

// Compares `fingerprint` against the stored golden, or rewrites the
// golden when TTMQO_UPDATE_GOLDEN is set in the environment.
void CheckGolden(const std::string& name, const std::string& fingerprint) {
  const std::string path = GoldenPath(name);
  if (std::getenv("TTMQO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write golden file " << path;
    out << fingerprint;
    std::printf("updated %s\n", path.c_str());
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << "; generate it with TTMQO_UPDATE_GOLDEN=1";
  std::ostringstream stored;
  stored << in.rdbuf();
  EXPECT_EQ(stored.str(), fingerprint)
      << "behavior drifted from " << path
      << "; if intentional, refresh with TTMQO_UPDATE_GOLDEN=1 and review "
         "the diff";
}

// The shape of a JSONL trace: its line count, the lines of each event
// kind, and the FNV-1a 64 hash of its bytes, so a byte-level drift fails
// with a diff that names the kinds whose counts moved.
std::string TraceFingerprint(std::string_view jsonl) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : jsonl) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  constexpr std::string_view kPrefix = "{\"event\":\"";
  std::map<std::string, std::size_t> kinds;
  std::size_t lines = 0;
  std::size_t begin = 0;
  while (begin < jsonl.size()) {
    std::size_t end = jsonl.find('\n', begin);
    if (end == std::string_view::npos) end = jsonl.size();
    const std::string_view line = jsonl.substr(begin, end - begin);
    ++lines;
    if (line.starts_with(kPrefix)) {
      const std::string_view rest = line.substr(kPrefix.size());
      ++kinds[std::string(rest.substr(0, rest.find('"')))];
    } else {
      ++kinds["(malformed)"];
    }
    begin = end + 1;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  std::string out = "lines=" + std::to_string(lines) + "\n";
  for (const auto& [kind, count] : kinds) {
    out += "kind " + kind + " " + std::to_string(count) + "\n";
  }
  out += "fnv1a64=" + std::string(hex) + "\n";
  return out;
}

// The Figure 2 field: a fixed far-corner cluster holds elevated light
// readings (mirrors fig2_scenario_test.cc).
class ClusterField final : public FieldModel {
 public:
  explicit ClusterField(std::set<NodeId> hot) : hot_(std::move(hot)) {}

  double Sample(NodeId node, const Position&, Attribute attr,
                SimTime time) const override {
    if (attr == Attribute::kNodeId) return node;
    const double base = hot_.contains(node) ? 900.0 : 100.0;
    return base + static_cast<double>((node * 7 + time / 2048) % 50);
  }

 private:
  std::set<NodeId> hot_;
};

// Scenario 1: the paper's Figure 2 — two overlapping acquisition queries
// answered by a spatial cluster through the in-network tier alone.
TEST(GoldenRegressionTest, Fig2Scenario) {
  const Topology topology = Topology::Grid(4);
  const ClusterField field({10, 11, 14, 15, 13});
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  ResultLog log;
  InNetworkEngine engine(network, field, &log);
  engine.SubmitQuery(
      ParseQuery(1, "SELECT light WHERE light > 800 EPOCH DURATION 4096"));
  engine.SubmitQuery(
      ParseQuery(2, "SELECT light WHERE light > 890 EPOCH DURATION 4096"));
  network.sim().RunUntil(8 * 4096);

  CheckGolden("fig2_scenario.txt",
              FingerprintRun(log, RunSummary::FromLedger(network.ledger(),
                                                         8 * 4096)));
}

// Scenario 2: a full TTMQO run — WORKLOAD_C on a 6x6 grid through the
// complete two-tier stack and experiment harness.
TEST(GoldenRegressionTest, TtmqoSixBySix) {
  RunConfig config;
  config.grid_side = 6;
  config.mode = OptimizationMode::kTwoTier;
  config.field = FieldKind::kCorrelated;
  config.duration_ms = 8 * 12288;
  config.seed = 42;
  const RunResult run = RunExperiment(config, StaticSchedule(WorkloadC()));
  CheckGolden("ttmqo_6x6.txt", FingerprintRun(run));
}

// Scenario 3: reliability behavior — a crash, a transient outage, and a
// degraded link on a 4x4 TTMQO run.  Pins retransmission counts and
// delivery completeness, not just answers.
TEST(GoldenRegressionTest, FaultPlanRun) {
  FaultPlan plan;
  plan.AddCrash(/*node=*/5, /*at=*/3 * 12288);
  plan.AddOutage(/*node=*/10, /*from=*/2 * 12288, /*until=*/4 * 12288);
  plan.AddLinkLoss(/*a=*/1, /*b=*/2, /*prob=*/0.3, /*from=*/12288);

  RunConfig config;
  config.grid_side = 4;
  config.mode = OptimizationMode::kTwoTier;
  config.field = FieldKind::kCorrelated;
  config.duration_ms = 8 * 12288;
  config.seed = 7;
  config.faults = plan;
  const RunResult run = RunExperiment(config, StaticSchedule(WorkloadA()));
  CheckGolden("fault_plan_4x4.txt", FingerprintRun(run));
}

// Scenario 4: dense contention — nonzero collision probability, a lossy
// link, and WORKLOAD_C's multicast-heavy two-tier traffic on a 5x5 grid.
// The earlier scenarios run on clean channels, so they never exercise the
// retry, interference-counting, or link-loss hot paths; this one pins all
// three (the fingerprint includes retransmission totals and event counts).
TEST(GoldenRegressionTest, DenseContentionRun) {
  FaultPlan plan;
  plan.AddLinkLoss(/*a=*/1, /*b=*/2, /*prob=*/0.25, /*from=*/12288);

  RunConfig config;
  config.grid_side = 5;
  config.mode = OptimizationMode::kTwoTier;
  config.field = FieldKind::kCorrelated;
  config.channel.collision_prob = 0.08;
  config.duration_ms = 8 * 12288;
  config.seed = 11;
  config.faults = plan;
  const RunResult run = RunExperiment(config, StaticSchedule(WorkloadC()));
  // The scenario must actually generate contention, or the golden would
  // silently pin a clean-channel run.
  EXPECT_GT(run.summary.retransmissions, 0u);
  CheckGolden("dense_contention_5x5.txt", FingerprintRun(run));
}

// Scenario 5: the TinyDB baseline — WORKLOAD_B on a 6x6 grid over a
// contended channel.  The scenarios above all run tier 2, so without this
// one nothing pins the baseline engine's routing and per-query traffic.
TEST(GoldenRegressionTest, BaselineSixBySix) {
  RunConfig config;
  config.grid_side = 6;
  config.mode = OptimizationMode::kBaseline;
  config.field = FieldKind::kCorrelated;
  config.channel.collision_prob = 0.02;
  config.duration_ms = 8 * 12288;
  config.seed = 5;
  const RunResult run = RunExperiment(config, StaticSchedule(WorkloadB()));
  EXPECT_GT(run.summary.retransmissions, 0u);
  CheckGolden("baseline_6x6.txt", FingerprintRun(run));
}

// Scenario 6: the arq transport — WORKLOAD_C on a 6x6 grid with 10% loss
// on every link, random transient outages and a contended channel.  Pins
// acks, retries and gap repair, which the reliability=off scenarios never
// run.
RunConfig ArqLossyConfig() {
  RunConfig config;
  config.grid_side = 6;
  config.mode = OptimizationMode::kTwoTier;
  config.field = FieldKind::kCorrelated;
  config.reliability = ReliabilityProfile::kArq;
  config.channel.collision_prob = 0.02;
  config.duration_ms = 8 * 12288;
  config.seed = 13;
  RandomFaultParams params;
  params.link_loss = 0.10;
  config.faults = FaultPlan::RandomTransient(params, 6 * 6, config.duration_ms,
                                             config.seed);
  return config;
}

TEST(GoldenRegressionTest, ArqLossySixBySix) {
  const RunResult run =
      RunExperiment(ArqLossyConfig(), StaticSchedule(WorkloadC()));
  EXPECT_GT(run.summary.control_messages, 0u);
  EXPECT_FALSE(run.summary.coverage.empty());
  CheckGolden("arq_lossy_6x6.txt", FingerprintRun(run));
}

// The same run's JSONL trace: radio, fault, tier-1/tier-2 decision and
// run events, pinned by line counts per kind and a hash of the bytes.  The
// trace is the one artifact that puts each decision beside the radio
// events it caused, so a change to its interleaving, field order or number
// formatting fails here.
TEST(GoldenRegressionTest, ArqLossySixBySixTrace) {
  std::ostringstream jsonl;
  {
    JsonlTraceWriter writer(jsonl);
    RunConfig config = ArqLossyConfig();
    config.obs.trace = &writer;
    RunExperiment(config, StaticSchedule(WorkloadC()));
  }
  CheckGolden("trace_arq_lossy_6x6.txt", TraceFingerprint(jsonl.str()));
}

// Scenario 7: tier 2 at scale — WORKLOAD_C on a 16x16 grid over a
// contended channel.  On the small grids above a relay holds a few dozen
// duplicate-suppression keys and a packed send rarely splits across query
// sets; here relays near the sink carry hundreds of rows per tick, so the
// pinned event count catches any reordering of their sends.
TEST(GoldenRegressionTest, TtmqoSixteenBySixteen) {
  RunConfig config;
  config.grid_side = 16;
  config.mode = OptimizationMode::kTwoTier;
  config.field = FieldKind::kCorrelated;
  config.channel.collision_prob = 0.02;
  config.duration_ms = 8 * 12288;
  config.seed = 42;
  const RunResult run = RunExperiment(config, StaticSchedule(WorkloadC()));
  CheckGolden("ttmqo_16x16.txt", FingerprintRun(run));
}

// Scenarios 8 and 9 share one churn: Section 4.3 random queries arriving
// and terminating throughout a 6x6 run, with a relay down from 200 s to
// 250 s while the network aborts queries.
constexpr NodeId kChurnRelay = 14;
constexpr SimTime kChurnDownFrom = 200'000;
constexpr SimTime kChurnDownUntil = 250'000;

std::vector<WorkloadEvent> ChurnSchedule() {
  QueryModelParams params;
  params.predicate_selectivity = 1.0;
  params.randomize_selectivity = true;
  RandomQueryModel model(params, 17);
  return DynamicSchedule(model, 300, 100.0, 60'000.0, 19);
}

RunConfig ChurnConfig(OptimizationMode mode,
                      const std::vector<WorkloadEvent>& schedule) {
  SimTime last = 0;
  for (const WorkloadEvent& event : schedule) {
    last = std::max(last, event.time);
  }
  // The outage must hit a node that forwards for others while queries end,
  // or the golden would pin a run in which every node hears every abort.
  EXPECT_FALSE(
      LevelGraph(Topology::Grid(6)).LowerNeighbors(kChurnRelay).empty());
  const auto terminated_while_down =
      std::count_if(schedule.begin(), schedule.end(), [](const auto& event) {
        return event.kind == WorkloadEvent::Kind::kTerminate &&
               event.time >= kChurnDownFrom && event.time < kChurnDownUntil;
      });
  EXPECT_GT(terminated_while_down, 0);

  FaultPlan plan;
  plan.AddOutage(kChurnRelay, kChurnDownFrom, kChurnDownUntil);
  RunConfig config;
  config.grid_side = 6;
  config.mode = mode;
  config.field = FieldKind::kCorrelated;
  config.duration_ms = last + 1;
  config.seed = 23;
  config.faults = plan;
  return config;
}

// Scenario 8: the churn through the two-tier stack.  The scenarios above
// never end a query, so this one pins the abort flood, query removal at
// the nodes, and a relay that misses an abort and keeps running the query
// after it recovers.
TEST(GoldenRegressionTest, TtmqoChurnSixBySix) {
  const std::vector<WorkloadEvent> schedule = ChurnSchedule();
  RunConfig config = ChurnConfig(OptimizationMode::kTwoTier, schedule);
  // Tier 1 decides which user terminations end a network query; count the
  // aborts the relay sleeps through.
  CollectingTraceSink trace;
  config.obs.trace = &trace;
  const RunResult run = RunExperiment(config, schedule);
  const auto aborted_while_down = std::count_if(
      trace.events().begin(), trace.events().end(), [](const auto& event) {
        return event.kind == "tier2.terminate" &&
               event.time >= kChurnDownFrom && event.time < kChurnDownUntil;
      });
  EXPECT_GT(aborted_while_down, 0);
  CheckGolden("ttmqo_churn_6x6.txt", FingerprintRun(run));
}

// Scenario 9: the same churn through the TinyDB baseline, where every user
// termination floods an abort, so the relay misses every abort sent while
// it is down and keeps those queries running.  Pins TinyDB's propagation
// and abort floods, which the static baseline scenario never ends.
TEST(GoldenRegressionTest, BaselineChurnSixBySix) {
  const std::vector<WorkloadEvent> schedule = ChurnSchedule();
  const RunResult run = RunExperiment(
      ChurnConfig(OptimizationMode::kBaseline, schedule), schedule);
  CheckGolden("baseline_churn_6x6.txt", FingerprintRun(run));
}

// Scenario 10: scenario 5 under 10% loss on every link.  TinyDB
// never exploits overhearing, so the radio may hand its unicasts straight
// to their destinations, but only on a lossless channel: this run pins
// every loss draw the full neighbor loop makes, overheard neighbors'
// included.
TEST(GoldenRegressionTest, BaselineLossySixBySix) {
  RunConfig config;
  config.grid_side = 6;
  config.mode = OptimizationMode::kBaseline;
  config.field = FieldKind::kCorrelated;
  config.channel.collision_prob = 0.02;
  config.duration_ms = 8 * 12288;
  config.seed = 5;
  config.faults.SetDefaultLinkLoss(0.10);
  CollectingTraceSink trace;
  config.obs.trace = &trace;
  const RunResult run = RunExperiment(config, StaticSchedule(WorkloadB()));
  const auto link_drops = std::count_if(
      trace.events().begin(), trace.events().end(),
      [](const auto& event) { return event.kind == "linkdrop"; });
  EXPECT_GT(link_drops, 0);
  CheckGolden("baseline_lossy_6x6.txt", FingerprintRun(run));
}

}  // namespace
}  // namespace ttmqo
