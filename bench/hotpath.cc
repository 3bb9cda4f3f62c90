// Hot-path benchmark for the discrete-event core, in six parts:
//
//   A. sweep     — the committed BENCH_sweep.json spec at jobs=1; reports
//                  serial events/sec.
//   B. dense     — a synthetic worst case the figure sweeps never reach:
//                  a 10x10 grid where every node multicasts to all of its
//                  neighbors on a fast period over a colliding (p=0.1),
//                  lossy (p=0.05) channel, so the interference-counting,
//                  retry, and per-destination loss paths dominate.
//   C. probe     — the allocation counter: a broadcast-only steady state
//                  runs a warmup (vectors reach capacity, the event slab
//                  reaches its high-water mark), then the same workload
//                  runs again under a global operator-new counter.  The
//                  engine's contract is zero heap allocations per event in
//                  steady state; the probe measures it rather than trusts
//                  it.
//   D. arq probe — the same counter around the ARQ transport: a 6x6 grid
//                  at 10% link loss where every non-sink node sends one
//                  reliable unicast per period to its smallest-id
//                  neighbor.  After a warmup it counts, over an equal
//                  window, allocations, sends, retransmits, acks and data
//                  receptions.  The transport allocates per send and per
//                  reception by design, so the counts are recorded, not
//                  gated; CI's artifact diff pins them.
//   E. result probe — the same counter around the engines' result
//                  traffic: one 8x8 WorkloadC deployment per mode,
//                  baseline and ttmqo, at collision probability 0.02 and
//                  seed 1, built as `RunExperiment` builds it.  After a
//                  warmup it counts, over an equal window, allocations,
//                  radio messages and events, and their ratio
//                  `allocs_per_message`.  Recorded, not gated.
//   F. answer probe — the same counter around the base station's answer
//                  path: one lossless 6x6 ttmqo deployment fed by the
//                  Section 4.3 random model at perfbench's query_churn
//                  settings (2500 queries, 100 ms mean inter-arrival, 60 s
//                  mean lifetime, selectivity 1.0 randomized, seed 1),
//                  built as `RunExperiment` builds it.  After a warmup it
//                  counts, over an equal window, allocations, answers
//                  logged and events, and their ratio `allocs_per_answer`.
//                  Recorded, not gated.
//
// The artifact records absolute rates only; compare two builds by running
// both on the same machine.
//
//   $ hotpath                         # full artifact -> BENCH_hotpath.json
//   $ hotpath --spec="grids=4 ..." --dense-ms=5000 --probe-ms=5000
//
// Flags:
//   --spec=<text|@...>  sweep spec for part A (default: the committed
//                       BENCH_sweep.json spec)
//   --out=p.json        artifact path (default BENCH_hotpath.json)
//   --dense-ms=N        simulated duration of part B (default 60000)
//   --probe-ms=N        simulated warmup and measurement duration of parts
//                       C, D, E and F (default 60000 each)
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ttmqo_engine.h"
#include "net/network.h"
#include "obs/build_info.h"
#include "obs/session.h"
#include "query/result.h"
#include "reliable/arq.h"
#include "sweep/spec.h"
#include "util/flags.h"
#include "workload/generator.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

// ---------------------------------------------------------------------------
// Global allocation counter.  Every path into the heap in this binary goes
// through these replaceable operators; part C reads the counter around a
// measured simulation window to prove the steady-state event loop never
// touches the allocator, and parts D, E and F read it around the ARQ
// transport, the engines' result traffic and the base station's answers.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ttmqo {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

double EventsPerSec(std::uint64_t events, double wall_ms) {
  return static_cast<double>(events) * 1000.0 / wall_ms;
}

/// A node that re-sends the same message shape on a fixed period through a
/// pooled, inline-captured event — the traffic generator for parts B and C.
struct NodeTicker {
  Network* net = nullptr;
  NodeId node = 0;
  SimDuration period = 0;
  AddressMode mode = AddressMode::kBroadcast;
  std::size_t payload_bytes = 0;

  void Tick() {
    Message msg;
    msg.cls = MessageClass::kMaintenance;
    msg.mode = mode;
    msg.sender = node;
    if (mode == AddressMode::kMulticast) {
      const std::vector<NodeId>& neighbors = net->topology().NeighborsOf(node);
      msg.destinations.assign(neighbors.begin(), neighbors.end());
    }
    msg.payload_bytes = payload_bytes;
    net->Send(std::move(msg));
    net->sim().ScheduleAfter(period, [this] { Tick(); });
  }
};

/// Starts one ticker per non-sink node, staggered by node index so the
/// radios do not phase-lock.
void StartTickers(std::vector<NodeTicker>& tickers, Network& net,
                  SimDuration period, AddressMode mode,
                  std::size_t payload_bytes) {
  const std::size_t n = net.topology().size();
  tickers.resize(n);
  for (NodeId node = 1; node < n; ++node) {
    tickers[node] = NodeTicker{&net, node, period, mode, payload_bytes};
    NodeTicker* ticker = &tickers[node];
    net.sim().ScheduleAt(static_cast<SimTime>(node) % period,
                         [ticker] { ticker->Tick(); });
  }
}

struct SweepResult {
  std::size_t tasks = 0;
  std::uint64_t events = 0;
  double wall_ms = 0.0;
};

SweepResult RunSweepPart(const SweepSpec& spec) {
  std::printf("hotpath: part A — sweep, %zu tasks at jobs=1...\n",
              spec.TaskCount());
  const SweepReport report = RunSweep(spec, 1);
  return {report.rows.size(), report.TotalEvents(), report.wall_ms};
}

struct DenseResult {
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  std::uint64_t retransmissions = 0;
  std::uint64_t link_drops = 0;
};

DenseResult RunDensePart(SimDuration duration_ms) {
  std::printf("hotpath: part B — dense contention, %lld sim ms...\n",
              static_cast<long long>(duration_ms));
  const Topology topology = Topology::Grid(10);
  ChannelParams channel;
  channel.collision_prob = 0.1;
  Network net(topology, RadioParams{}, channel, /*seed=*/1);
  net.SetDefaultLinkLoss(0.05);
  // Per-receiver loss is only rolled for neighbors that could actually
  // receive, so the lossy path needs installed receivers to be exercised.
  for (NodeId node = 0; node < topology.size(); ++node) {
    net.SetReceiver(
        node, [](const Message&, bool) {}, Network::Hearing::kOverheard);
  }
  std::vector<NodeTicker> tickers;
  StartTickers(tickers, net, /*period=*/128, AddressMode::kMulticast,
               /*payload_bytes=*/24);
  const auto start = Clock::now();
  net.sim().RunUntil(duration_ms);
  DenseResult result;
  result.wall_ms = ElapsedMs(start);
  result.events = net.sim().events_executed();
  result.retransmissions = net.ledger().TotalRetransmissions();
  result.link_drops = net.link_drops();
  return result;
}

struct ProbeResult {
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  std::uint64_t allocations = 0;
};

ProbeResult RunProbePart(SimDuration probe_ms) {
  std::printf("hotpath: part C — allocation probe, %lld + %lld sim ms...\n",
              static_cast<long long>(probe_ms),
              static_cast<long long>(probe_ms));
  // Clean channel, no receivers: every event is pure hot path (tick, send,
  // begin, complete, deliver-to-nobody), so any allocation counted below
  // is the event engine's own.
  const Topology topology = Topology::Grid(4);
  Network net(topology, RadioParams{}, ChannelParams{}, /*seed=*/1);
  const auto tx_ms = static_cast<SimDuration>(
      std::ceil(net.radio().TransmitDurationMs(24)));
  std::vector<NodeTicker> tickers;
  // Period >> transmit time, so the per-node radio never backlogs and the
  // pending-event count stays flat after warmup.
  StartTickers(tickers, net, /*period=*/8 * tx_ms, AddressMode::kBroadcast,
               /*payload_bytes=*/24);

  // Warmup: the event slab and free list grow to their high-water marks
  // here, not in the measured window.
  net.sim().RunUntil(probe_ms);

  const std::uint64_t events_before = net.sim().events_executed();
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  net.sim().RunUntil(2 * probe_ms);
  ProbeResult result;
  result.wall_ms = ElapsedMs(start);
  result.events = net.sim().events_executed() - events_before;
  result.allocations =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  return result;
}

/// The application payload of part D's reliable sends, shared by all of
/// them so that the bench itself allocates only each send's destination.
struct ArqProbePayload final : TaggedPayload<ArqProbePayload> {};

/// A node that sends one reliable unicast per period to its smallest-id
/// neighbor, with a deadline one period out.
struct ArqTicker {
  ArqTransport* arq = nullptr;
  Network* net = nullptr;
  std::shared_ptr<const Payload> payload;
  NodeId node = 0;
  SimDuration period = 0;

  void Tick() {
    Message msg;
    msg.cls = MessageClass::kResult;
    msg.mode = AddressMode::kUnicast;
    msg.sender = node;
    msg.destinations.push_back(net->topology().NeighborsOf(node).front());
    msg.payload_bytes = 24;
    msg.payload = payload;
    arq->Send(std::move(msg), net->sim().Now() + period);
    net->sim().ScheduleAfter(period, [this] { Tick(); });
  }
};

/// What part D counts over its measured window.
struct ArqCounts {
  std::uint64_t allocations = 0;
  std::uint64_t sends = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
  std::uint64_t duplicates_dropped = 0;
  /// Data copies handed up to an addressed receiver.
  std::uint64_t delivered = 0;
  /// Data copies overheard by a neighbor that was not addressed.
  std::uint64_t overheard = 0;
};

ArqCounts RunArqProbePart(SimDuration probe_ms) {
  std::printf("hotpath: part D — arq allocation probe, %lld + %lld sim ms...\n",
              static_cast<long long>(probe_ms),
              static_cast<long long>(probe_ms));
  const Topology topology = Topology::Grid(6);
  Network net(topology, RadioParams{}, ChannelParams{}, /*seed=*/1);
  net.SetDefaultLinkLoss(0.1);
  ArqOptions options;
  options.enabled = true;
  options.seed = 1;
  ArqTransport arq(net, options);
  std::uint64_t delivered = 0;
  std::uint64_t overheard = 0;
  for (NodeId node = 0; node < topology.size(); ++node) {
    arq.Attach(node, [&delivered, &overheard](const Message& msg,
                                              bool addressed) {
      // Acks fall through to the upper receiver too; count data only.
      if (PayloadAs<ArqProbePayload>(msg.payload.get()) == nullptr) return;
      ++(addressed ? delivered : overheard);
    });
  }
  constexpr SimDuration kPeriodMs = 1024;
  const auto payload = std::make_shared<ArqProbePayload>();
  std::vector<ArqTicker> tickers(topology.size());
  for (NodeId node = 1; node < topology.size(); ++node) {
    tickers[node] = ArqTicker{&arq, &net, payload, node, kPeriodMs};
    ArqTicker* ticker = &tickers[node];
    // Staggered by node index so the radios do not phase-lock.
    net.sim().ScheduleAt(static_cast<SimTime>(node) * kPeriodMs /
                             static_cast<SimTime>(topology.size()),
                         [ticker] { ticker->Tick(); });
  }

  // Warmup: the slab, the pending slots and the ack pool reach their
  // high-water marks here, not in the measured window.
  net.sim().RunUntil(probe_ms);
  const auto snapshot = [&] {
    ArqCounts now;
    now.allocations = g_allocations.load(std::memory_order_relaxed);
    now.sends = arq.sends();
    now.retransmits = arq.retransmits();
    now.acks = arq.acks_sent();
    now.duplicates_dropped = arq.duplicates_dropped();
    now.delivered = delivered;
    now.overheard = overheard;
    return now;
  };
  const ArqCounts before = snapshot();
  net.sim().RunUntil(2 * probe_ms);
  const ArqCounts after = snapshot();
  ArqCounts window;
  window.allocations = after.allocations - before.allocations;
  window.sends = after.sends - before.sends;
  window.retransmits = after.retransmits - before.retransmits;
  window.acks = after.acks - before.acks;
  window.duplicates_dropped =
      after.duplicates_dropped - before.duplicates_dropped;
  window.delivered = after.delivered - before.delivered;
  window.overheard = after.overheard - before.overheard;
  return window;
}

/// What part E counts over its measured window, for one mode.
struct ResultProbe {
  OptimizationMode mode = OptimizationMode::kBaseline;
  std::uint64_t allocations = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;

  double AllocsPerMessage() const {
    return messages == 0 ? 0.0
                         : static_cast<double>(allocations) /
                               static_cast<double>(messages);
  }
};

ResultProbe RunResultProbePart(OptimizationMode mode, SimDuration probe_ms) {
  std::printf("hotpath: part E — result probe (%s), %lld + %lld sim ms...\n",
              std::string(ShortModeName(mode)).c_str(),
              static_cast<long long>(probe_ms),
              static_cast<long long>(probe_ms));
  // The deployment `RunExperiment` builds for `run_experiment --side=8
  // --mode=<mode>`: WorkloadC submitted at time 0, maintenance beacons on.
  RunConfig config;
  config.grid_side = 8;
  config.channel.collision_prob = 0.02;
  config.seed = 1;
  config.mode = mode;
  const Topology topology = Topology::Grid(
      config.grid_side, config.grid_spacing_feet, config.radio.range_feet);
  Network network(topology, config.radio, config.channel, config.seed);
  const std::unique_ptr<FieldModel> field =
      MakeFieldModel(config.field, config.seed);
  ResultLog results;
  TtmqoEngine engine(network, *field, &results, EngineOptionsFor(config));
  network.StartMaintenanceBeacons(config.maintenance_period_ms,
                                  config.maintenance_payload_bytes);
  // The schedule outlives the run, so each submission captures a pointer
  // to its query and stays in the event slab's inline buffer.
  const std::vector<WorkloadEvent> schedule = StaticSchedule(WorkloadC());
  for (const WorkloadEvent& event : schedule) {
    const Query* query = &*event.query;
    network.sim().ScheduleAt(event.time,
                             [&engine, query] { engine.SubmitQuery(*query); });
  }

  // Warmup: every query is installed and every per-node buffer has met
  // its traffic before the window opens.
  network.sim().RunUntil(probe_ms);
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t messages_before = network.ledger().TotalMessages();
  const std::uint64_t events_before = network.sim().events_executed();
  network.sim().RunUntil(2 * probe_ms);
  ResultProbe probe;
  probe.mode = mode;
  probe.allocations =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  probe.messages = network.ledger().TotalMessages() - messages_before;
  probe.events = network.sim().events_executed() - events_before;
  return probe;
}

/// What part F counts over its measured window.
struct AnswerProbe {
  std::uint64_t allocations = 0;
  std::uint64_t answers = 0;
  std::uint64_t events = 0;

  double AllocsPerAnswer() const {
    return answers == 0 ? 0.0
                        : static_cast<double>(allocations) /
                              static_cast<double>(answers);
  }
};

AnswerProbe RunAnswerProbePart(SimDuration probe_ms) {
  std::printf("hotpath: part F — answer probe, %lld + %lld sim ms...\n",
              static_cast<long long>(probe_ms),
              static_cast<long long>(probe_ms));
  // One run of perfbench's query_churn: about 600 random-model user
  // queries live at once, which tier 1 merges into a few network queries,
  // so the base station maps each synthetic epoch into many answers.
  RunConfig config;
  config.grid_side = 6;
  config.seed = 1;
  const Topology topology = Topology::Grid(
      config.grid_side, config.grid_spacing_feet, config.radio.range_feet);
  Network network(topology, config.radio, config.channel, config.seed);
  const std::unique_ptr<FieldModel> field =
      MakeFieldModel(config.field, config.seed);
  ResultLog results;
  TtmqoEngine engine(network, *field, &results, EngineOptionsFor(config));
  network.StartMaintenanceBeacons(config.maintenance_period_ms,
                                  config.maintenance_payload_bytes);
  QueryModelParams params;
  params.predicate_selectivity = 1.0;
  params.randomize_selectivity = true;
  RandomQueryModel model(params, config.seed);
  const std::vector<WorkloadEvent> schedule =
      DynamicSchedule(model, 2500, 100.0, 60'000.0, config.seed);
  for (const WorkloadEvent& event : schedule) {
    if (event.kind == WorkloadEvent::Kind::kSubmit) {
      const Query* query = &*event.query;
      network.sim().ScheduleAt(
          event.time, [&engine, query] { engine.SubmitQuery(*query); });
    } else {
      const QueryId id = event.id;
      network.sim().ScheduleAt(event.time,
                               [&engine, id] { engine.TerminateQuery(id); });
    }
  }

  // Warmup: hundreds of user queries are live and merged before the
  // window opens.
  network.sim().RunUntil(probe_ms);
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::size_t answers_before = results.size();
  const std::uint64_t events_before = network.sim().events_executed();
  network.sim().RunUntil(2 * probe_ms);
  AnswerProbe probe;
  probe.allocations =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  probe.answers = results.size() - answers_before;
  probe.events = network.sim().events_executed() - events_before;
  return probe;
}

std::string LoadSpecText(const std::string& arg) {
  if (arg.empty() || arg[0] != '@') return arg;
  std::ifstream in(arg.substr(1));
  if (!in) throw std::runtime_error("cannot open spec file: " + arg.substr(1));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string spec_arg = flags.GetString(
      "spec",
      "grids=4,6,8,10 workloads=C modes=baseline,ttmqo faults=none seeds=1 "
      "base-seed=1 duration-ms=245760 collisions=0.02 alpha=0.6");
  const std::string out_path = flags.GetString("out", "BENCH_hotpath.json");
  const auto dense_ms = static_cast<SimDuration>(
      flags.GetInt("dense-ms", 60'000));
  const auto probe_ms = static_cast<SimDuration>(
      flags.GetInt("probe-ms", 60'000));
  obs::ObsSession obs_session(obs::ObsSession::FromFlags(flags));
  if (ReportUnreadFlags(flags)) return 2;

  obs::WarnIfSingleCore(std::cerr);

  const SweepSpec spec = SweepSpec::Parse(LoadSpecText(spec_arg));
  const SweepResult sweep = RunSweepPart(spec);
  const double sweep_eps = EventsPerSec(sweep.events, sweep.wall_ms);
  const DenseResult dense = RunDensePart(dense_ms);
  const ProbeResult probe = RunProbePart(probe_ms);
  const ArqCounts arq = RunArqProbePart(probe_ms);
  const std::vector<ResultProbe> result_probes = {
      RunResultProbePart(OptimizationMode::kBaseline, probe_ms),
      RunResultProbePart(OptimizationMode::kTwoTier, probe_ms)};
  const AnswerProbe answers = RunAnswerProbePart(probe_ms);
  const double allocs_per_event =
      static_cast<double>(probe.allocations) /
      static_cast<double>(probe.events);

  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot open output file: " + out_path);
  char buf[512];
  out << "{\n";
  out << "  \"bench\": \"hotpath\",\n";
  out << "  \"spec\": \"" << spec.ToString() << "\",\n";
  out << "  \"build\": ";
  obs::WriteBuildInfoJson(out);
  out << ",\n";
  std::snprintf(
      buf, sizeof(buf),
      "  \"sweep\": {\"tasks\": %zu, \"events_executed\": %llu, "
      "\"wall_ms\": %.1f, \"events_per_sec\": %.0f},\n",
      sweep.tasks, static_cast<unsigned long long>(sweep.events),
      sweep.wall_ms, sweep_eps);
  out << buf;
  std::snprintf(
      buf, sizeof(buf),
      "  \"dense\": {\"sim_ms\": %lld, \"events_executed\": %llu, "
      "\"wall_ms\": %.1f, \"events_per_sec\": %.0f, "
      "\"retransmissions\": %llu, \"link_drops\": %llu},\n",
      static_cast<long long>(dense_ms),
      static_cast<unsigned long long>(dense.events), dense.wall_ms,
      EventsPerSec(dense.events, dense.wall_ms),
      static_cast<unsigned long long>(dense.retransmissions),
      static_cast<unsigned long long>(dense.link_drops));
  out << buf;
  std::snprintf(
      buf, sizeof(buf),
      "  \"alloc_probe\": {\"sim_ms\": %lld, \"events_measured\": %llu, "
      "\"allocations\": %llu, \"allocs_per_event\": %g},\n",
      static_cast<long long>(probe_ms),
      static_cast<unsigned long long>(probe.events),
      static_cast<unsigned long long>(probe.allocations), allocs_per_event);
  out << buf;
  std::snprintf(
      buf, sizeof(buf),
      "  \"arq_probe\": {\"sim_ms\": %lld, \"allocations\": %llu, "
      "\"sends\": %llu, \"retransmits\": %llu, \"acks\": %llu, "
      "\"duplicates_dropped\": %llu, \"data_delivered\": %llu, "
      "\"data_overheard\": %llu},\n",
      static_cast<long long>(probe_ms),
      static_cast<unsigned long long>(arq.allocations),
      static_cast<unsigned long long>(arq.sends),
      static_cast<unsigned long long>(arq.retransmits),
      static_cast<unsigned long long>(arq.acks),
      static_cast<unsigned long long>(arq.duplicates_dropped),
      static_cast<unsigned long long>(arq.delivered),
      static_cast<unsigned long long>(arq.overheard));
  out << buf;
  out << "  \"result_probe\": [";
  for (std::size_t i = 0; i < result_probes.size(); ++i) {
    const ResultProbe& r = result_probes[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"mode\": \"%s\", \"sim_ms\": %lld, \"allocations\": %llu, "
        "\"messages\": %llu, \"events\": %llu, \"allocs_per_message\": %.3f}",
        i == 0 ? "" : ",", std::string(ShortModeName(r.mode)).c_str(),
        static_cast<long long>(probe_ms),
        static_cast<unsigned long long>(r.allocations),
        static_cast<unsigned long long>(r.messages),
        static_cast<unsigned long long>(r.events), r.AllocsPerMessage());
    out << buf;
  }
  out << "\n  ],\n";
  std::snprintf(
      buf, sizeof(buf),
      "  \"answer_probe\": {\"mode\": \"ttmqo\", \"sim_ms\": %lld, "
      "\"allocations\": %llu, \"answers\": %llu, \"events\": %llu, "
      "\"allocs_per_answer\": %.3f}\n",
      static_cast<long long>(probe_ms),
      static_cast<unsigned long long>(answers.allocations),
      static_cast<unsigned long long>(answers.answers),
      static_cast<unsigned long long>(answers.events),
      answers.AllocsPerAnswer());
  out << buf;
  out << "}\n";

  std::printf(
      "hotpath: sweep %.0f events/sec; dense %.0f events/sec, %llu "
      "retransmissions, %llu link drops; probe %llu allocs over %llu events "
      "(%g/event); arq probe %llu allocs over %llu sends, %llu data "
      "receptions; result probe %.3f (baseline) and %.3f (ttmqo) allocs per "
      "message; answer probe %.3f allocs per answer; wrote %s\n",
      sweep_eps, EventsPerSec(dense.events, dense.wall_ms),
      static_cast<unsigned long long>(dense.retransmissions),
      static_cast<unsigned long long>(dense.link_drops),
      static_cast<unsigned long long>(probe.allocations),
      static_cast<unsigned long long>(probe.events), allocs_per_event,
      static_cast<unsigned long long>(arq.allocations),
      static_cast<unsigned long long>(arq.sends),
      static_cast<unsigned long long>(arq.delivered + arq.duplicates_dropped +
                                      arq.overheard),
      result_probes[0].AllocsPerMessage(), result_probes[1].AllocsPerMessage(),
      answers.AllocsPerAnswer(), out_path.c_str());
  if (probe.allocations != 0) {
    std::fprintf(stderr,
                 "hotpath: WARNING — steady state allocated (%llu allocs); "
                 "an event capture likely outgrew the inline buffer\n",
                 static_cast<unsigned long long>(probe.allocations));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ttmqo

int main(int argc, char** argv) {
  try {
    return ttmqo::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hotpath: %s\n", e.what());
    return 1;
  }
}
