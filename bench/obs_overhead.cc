// Overhead harness for the profiling spans (src/obs), in two parts:
//
//   A. micro  — ns/call of TTMQO_SPAN and TTMQO_SPAN_SAMPLED against an
//               identical function without a span, with spans enabled and
//               runtime-disabled.
//   B. hotpath — the broadcast steady state from bench/hotpath part C, run
//               in alternating equal sim-time windows with spans enabled and
//               runtime-disabled (best-of --reps per arm, interleaved to
//               cancel thermal/scheduler drift).  The sampled spans on
//               sim.event / net.deliver / net.complete_attempt are the only
//               instrumentation in this loop, so the events/sec delta is the
//               end-to-end cost of always-on profiling.
//
//   $ obs_overhead                          # artifact -> BENCH_obs.json
//   $ obs_overhead --max-overhead=3         # CI gate: exit 1 if hotpath
//                                           # regresses > 3% with spans on
//
// Flags:
//   --out=p.json        artifact path (default BENCH_obs.json)
//   --window-ms=N       minimum simulated duration per hotpath window
//                       (default 30000; also the calibration window)
//   --window-events=N   minimum events per hotpath window (default 1000000) —
//                       the warmup window calibrates event density and each
//                       measured window is stretched until it holds at least
//                       this many events, so the wall-clock read is well above
//                       scheduler noise
//   --reps=N            window pairs per arm (default 5)
//   --span-iters=N      micro-loop iterations (default 2000000)
//   --max-overhead=P    fail (exit 1) if hotpath overhead exceeds P percent
//                       (default: report only)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.h"
#include "obs/build_info.h"
#include "obs/span.h"
#include "util/flags.h"

namespace ttmqo {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

// ---------------------------------------------------------------------------
// Part A: per-call span cost.  The three work functions differ only in their
// instrumentation; noinline keeps the comparison at call granularity and the
// accumulator keeps the loops from being elided.

__attribute__((noinline)) std::uint64_t WorkBaseline(std::uint64_t x) {
  return x * 2654435761ull + 1;
}

__attribute__((noinline)) std::uint64_t WorkSpan(std::uint64_t x) {
  TTMQO_SPAN("bench.span");
  return x * 2654435761ull + 1;
}

__attribute__((noinline)) std::uint64_t WorkSampled(std::uint64_t x) {
  TTMQO_SPAN_SAMPLED("bench.sampled", 6);
  return x * 2654435761ull + 1;
}

// Accumulators are published here so the optimizer cannot drop the loops.
volatile std::uint64_t g_micro_sink;

template <typename Fn>
double MeasureNsPerCall(std::uint64_t iters, Fn fn) {
  std::uint64_t acc = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) acc = fn(acc);
  const double ns = ElapsedMs(start) * 1e6;
  g_micro_sink = acc;
  return ns / static_cast<double>(iters);
}

struct MicroResult {
  double baseline_ns = 0.0;
  double span_enabled_ns = 0.0;
  double span_disabled_ns = 0.0;
  double sampled_ns = 0.0;
};

MicroResult RunMicroPart(std::uint64_t iters) {
  std::printf("obs_overhead: part A — %llu-iteration span micro-loops...\n",
              static_cast<unsigned long long>(iters));
  MicroResult r;
  // Warm each path once (claims the thread's span buffer outside the
  // measured loops) before the timed passes.
  MeasureNsPerCall(1024, WorkSpan);
  r.baseline_ns = MeasureNsPerCall(iters, WorkBaseline);
  obs::SetSpansEnabled(true);
  r.span_enabled_ns = MeasureNsPerCall(iters, WorkSpan);
  r.sampled_ns = MeasureNsPerCall(iters, WorkSampled);
  obs::SetSpansEnabled(false);
  r.span_disabled_ns = MeasureNsPerCall(iters, WorkSpan);
  obs::SetSpansEnabled(true);
  return r;
}

// ---------------------------------------------------------------------------
// Part B: the steady-state event loop, alternating spans-on / spans-off
// windows.  Same traffic shape as hotpath part C: broadcast tickers on a
// clean channel with no receivers, so every event is pure engine hot path.

struct NodeTicker {
  Network* net = nullptr;
  NodeId node = 0;
  SimDuration period = 0;

  void Tick() {
    Message msg;
    msg.cls = MessageClass::kMaintenance;
    msg.mode = AddressMode::kBroadcast;
    msg.sender = node;
    msg.payload_bytes = 24;
    net->Send(std::move(msg));
    net->sim().ScheduleAfter(period, [this] { Tick(); });
  }
};

struct HotpathResult {
  SimDuration window_sim_ms = 0;  ///< after event-density calibration
  std::uint64_t events_per_window = 0;
  double best_eps_on = 0.0;
  double best_eps_off = 0.0;

  double OverheadPercent() const {
    return (best_eps_off - best_eps_on) / best_eps_off * 100.0;
  }
};

HotpathResult RunHotpathPart(SimDuration window_ms, std::uint64_t min_events,
                             int reps) {
  const Topology topology = Topology::Grid(4);
  Network net(topology, RadioParams{}, ChannelParams{}, /*seed=*/1);
  const auto tx_ms = static_cast<SimDuration>(
      std::ceil(net.radio().TransmitDurationMs(24)));
  const SimDuration period = 8 * tx_ms;
  std::vector<NodeTicker> tickers(topology.size());
  for (NodeId node = 1; node < topology.size(); ++node) {
    tickers[node] = NodeTicker{&net, node, period};
    NodeTicker* ticker = &tickers[node];
    net.sim().ScheduleAt(static_cast<SimTime>(node) % period,
                         [ticker] { ticker->Tick(); });
  }

  // Warmup: event slab and span buffers reach their high-water marks here.
  // It doubles as density calibration — the measured windows are stretched
  // until each holds at least `min_events`, so a window's wall time is long
  // enough (tens of ms) that a few-percent delta clears scheduler noise.
  obs::SetSpansEnabled(true);
  net.sim().RunUntil(window_ms);
  const double density =  // events per simulated millisecond
      static_cast<double>(net.sim().events_executed()) /
      static_cast<double>(window_ms);
  const auto window_sim = std::max(
      window_ms, static_cast<SimDuration>(
                     std::ceil(static_cast<double>(min_events) / density)));
  std::printf("obs_overhead: part B — %d alternating %lld sim-ms windows "
              "per arm (>= %llu events each)...\n",
              reps, static_cast<long long>(window_sim),
              static_cast<unsigned long long>(min_events));

  HotpathResult result;
  result.window_sim_ms = window_sim;
  const auto run_window = [&](SimTime until, bool spans_on) {
    obs::SetSpansEnabled(spans_on);
    const std::uint64_t before = net.sim().events_executed();
    const auto start = Clock::now();
    net.sim().RunUntil(until);
    const double wall_ms = ElapsedMs(start);
    obs::SetSpansEnabled(true);
    const std::uint64_t events = net.sim().events_executed() - before;
    result.events_per_window = events;
    return static_cast<double>(events) * 1000.0 / wall_ms;
  };

  SimTime end = window_ms;
  for (int rep = 0; rep < reps; ++rep) {
    // Alternate which arm goes first so slow drift hits both equally.
    const bool on_first = (rep % 2) == 0;
    end += window_sim;
    const double first = run_window(end, on_first);
    end += window_sim;
    const double second = run_window(end, !on_first);
    const double eps_on = on_first ? first : second;
    const double eps_off = on_first ? second : first;
    result.best_eps_on = std::max(result.best_eps_on, eps_on);
    result.best_eps_off = std::max(result.best_eps_off, eps_off);
  }
  return result;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_obs.json");
  const auto window_ms = static_cast<SimDuration>(
      flags.GetInt("window-ms", 30'000));
  const auto window_events = static_cast<std::uint64_t>(
      flags.GetInt("window-events", 1'000'000));
  const int reps = static_cast<int>(flags.GetInt("reps", 5));
  const auto span_iters =
      static_cast<std::uint64_t>(flags.GetInt("span-iters", 2'000'000));
  const double max_overhead = flags.GetDouble("max-overhead", -1.0);
  if (ReportUnreadFlags(flags)) return 2;

  obs::WarnIfSingleCore(std::cerr);

  const MicroResult micro = RunMicroPart(span_iters);
  const HotpathResult hot = RunHotpathPart(window_ms, window_events, reps);
  const double overhead = hot.OverheadPercent();

  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot open output file: " + out_path);
  char buf[512];
  out << "{\n";
  out << "  \"bench\": \"obs_overhead\",\n";
  out << "  \"build\": ";
  obs::WriteBuildInfoJson(out);
  out << ",\n";
  std::snprintf(
      buf, sizeof(buf),
      "  \"span_ns\": {\"baseline\": %.2f, \"enabled\": %.2f, "
      "\"runtime_disabled\": %.2f, \"sampled_1_of_64\": %.2f, "
      "\"iters\": %llu},\n",
      micro.baseline_ns, micro.span_enabled_ns, micro.span_disabled_ns,
      micro.sampled_ns, static_cast<unsigned long long>(span_iters));
  out << buf;
  std::snprintf(
      buf, sizeof(buf),
      "  \"hotpath\": {\"window_sim_ms\": %lld, \"reps\": %d, "
      "\"events_per_window\": %llu, \"events_per_sec_spans_on\": %.0f, "
      "\"events_per_sec_spans_off\": %.0f, \"overhead_percent\": %.2f},\n",
      static_cast<long long>(hot.window_sim_ms), reps,
      static_cast<unsigned long long>(hot.events_per_window),
      hot.best_eps_on, hot.best_eps_off, overhead);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"gate\": {\"max_overhead_percent\": %.1f, "
                "\"enforced\": %s}\n",
                max_overhead, max_overhead >= 0.0 ? "true" : "false");
  out << buf;
  out << "}\n";

  std::printf(
      "obs_overhead: span %.1f ns enabled / %.1f ns disabled / %.1f ns "
      "sampled (baseline %.1f ns); hotpath %.0f events/sec on vs %.0f off "
      "(%+.2f%%); wrote %s\n",
      micro.span_enabled_ns, micro.span_disabled_ns, micro.sampled_ns,
      micro.baseline_ns, hot.best_eps_on, hot.best_eps_off, overhead,
      out_path.c_str());

  if (max_overhead >= 0.0 && overhead > max_overhead) {
    std::fprintf(stderr,
                 "obs_overhead: FAIL — spans-on hotpath is %.2f%% slower "
                 "than spans-off (gate: %.1f%%)\n",
                 overhead, max_overhead);
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
    std::fprintf(stderr, "obs_overhead: %s\n", e.what());
    return 1;
  }
}
