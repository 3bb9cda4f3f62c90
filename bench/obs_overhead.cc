// Overhead harness for the profiling spans (src/obs), in two parts:
//
//   A. micro  — ns/call of TTMQO_SPAN and TTMQO_SPAN_SAMPLED against an
//               identical function without a span, with spans enabled and
//               runtime-disabled.
//   B. hotpath — the broadcast steady state from bench/hotpath part C, run
//               in many short interleaved pairs of equal sim-time windows,
//               one with spans enabled and one runtime-disabled, alternating
//               which goes first.  Each window is timed in thread CPU time
//               (CLOCK_THREAD_CPUTIME_ID), so time the thread spends
//               descheduled on a shared host does not count, and each pair
//               gives one ratio of spans-on to spans-off CPU time per event.
//               The overhead is the median of those paired ratios: a burst
//               of noise spoils a few pairs, not the result.  The sampled
//               spans on sim.event / net.deliver / net.complete_attempt are
//               the only instrumentation in this loop, so the ratio is the
//               end-to-end cost of always-on profiling.
//
//   $ obs_overhead                          # artifact -> BENCH_obs.json
//   $ obs_overhead --max-overhead=3         # CI gate: exit 1 if the median
//                                           # spans-on pair is > 3% slower
//
// Flags:
//   --out=p.json        artifact path (default BENCH_obs.json)
//   --window-ms=N       minimum simulated duration per hotpath window
//                       (default 30000; also the calibration window)
//   --window-events=N   minimum events per hotpath window (default 50000) —
//                       the warmup window calibrates event density and each
//                       measured window is stretched until it holds at least
//                       this many events (a few ms of CPU time, far above the
//                       clock's resolution; short windows keep the two halves
//                       of a pair close in time)
//   --reps=N            rounds of 128 interleaved on/off window pairs
//                       (default 3)
//   --span-iters=N      micro-loop iterations (default 2000000)
//   --max-overhead=P    fail (exit 1) if the median paired overhead exceeds
//                       P percent (default: report only)
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
#include "util/check.h"
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

// Interleaved on/off pairs per --reps round; even, so each round runs as
// many pairs with spans on first as with spans off first.  With the default
// windows, 384 pairs (--reps=3) kept the median's run-to-run spread within
// about half a point on a shared 4-vCPU VM, where 24 pairs of 1M-event
// windows spread it over 4 points.
constexpr int kPairsPerRep = 128;

struct HotpathResult {
  SimDuration window_sim_ms = 0;  ///< after event-density calibration
  std::uint64_t events_per_window = 0;
  int pairs = 0;
  /// Per pair: spans-on over spans-off CPU ns per event, minus 1, in percent.
  std::vector<double> overhead_percent;
  /// Median CPU ns per event of each arm's windows.
  double median_ns_on = 0.0;
  double median_ns_off = 0.0;
};

/// The q-quantile of `values` by linear interpolation between order
/// statistics (q = 0.5 is the median).
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

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
  // until each holds at least `min_events`.
  obs::SetSpansEnabled(true);
  net.sim().RunUntil(window_ms);
  const double density =  // events per simulated millisecond
      static_cast<double>(net.sim().events_executed()) /
      static_cast<double>(window_ms);
  const auto window_sim = std::max(
      window_ms, static_cast<SimDuration>(
                     std::ceil(static_cast<double>(min_events) / density)));
  HotpathResult result;
  result.window_sim_ms = window_sim;
  result.pairs = reps * kPairsPerRep;
  std::printf("obs_overhead: part B — %d interleaved on/off pairs of "
              "%lld sim-ms windows (>= %llu events each)...\n",
              result.pairs, static_cast<long long>(window_sim),
              static_cast<unsigned long long>(min_events));

  SimTime end = window_ms;
  // CPU ns per event of one window run with spans `spans_on`.
  const auto run_window = [&](bool spans_on) {
    obs::SetSpansEnabled(spans_on);
    end += window_sim;
    const std::uint64_t before = net.sim().events_executed();
    const std::uint64_t start_ns = obs::ThreadCpuNs();
    net.sim().RunUntil(end);
    const std::uint64_t cpu_ns = obs::ThreadCpuNs() - start_ns;
    obs::SetSpansEnabled(true);
    const std::uint64_t events = net.sim().events_executed() - before;
    result.events_per_window = events;
    return static_cast<double>(cpu_ns) / static_cast<double>(events);
  };

  std::vector<double> ns_on;
  std::vector<double> ns_off;
  for (int pair = 0; pair < result.pairs; ++pair) {
    // Alternate which arm goes first so slow drift hits both equally.
    const bool on_first = (pair % 2) == 0;
    const double first = run_window(on_first);
    const double second = run_window(!on_first);
    ns_on.push_back(on_first ? first : second);
    ns_off.push_back(on_first ? second : first);
    result.overhead_percent.push_back(
        (ns_on.back() / ns_off.back() - 1.0) * 100.0);
  }
  result.median_ns_on = Quantile(ns_on, 0.5);
  result.median_ns_off = Quantile(ns_off, 0.5);
  return result;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string out_path = flags.GetString("out", "BENCH_obs.json");
  const auto window_ms = static_cast<SimDuration>(
      flags.GetInt("window-ms", 30'000));
  const auto window_events = static_cast<std::uint64_t>(
      flags.GetInt("window-events", 50'000));
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  const auto span_iters =
      static_cast<std::uint64_t>(flags.GetInt("span-iters", 2'000'000));
  const double max_overhead = flags.GetDouble("max-overhead", -1.0);
  if (ReportUnreadFlags(flags)) return 2;

  obs::WarnIfSingleCore(std::cerr);

  CheckArg(reps > 0, "--reps must be positive");
  const MicroResult micro = RunMicroPart(span_iters);
  const HotpathResult hot = RunHotpathPart(window_ms, window_events, reps);
  const double overhead = Quantile(hot.overhead_percent, 0.5);
  const double overhead_q1 = Quantile(hot.overhead_percent, 0.25);
  const double overhead_q3 = Quantile(hot.overhead_percent, 0.75);

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
      "  \"hotpath\": {\"clock\": \"thread_cpu\", \"window_sim_ms\": %lld, "
      "\"pairs\": %d, \"events_per_window\": %llu, "
      "\"cpu_ns_per_event_spans_on\": %.2f, "
      "\"cpu_ns_per_event_spans_off\": %.2f, "
      "\"overhead_percent\": %.2f, \"overhead_percent_q1\": %.2f, "
      "\"overhead_percent_q3\": %.2f},\n",
      static_cast<long long>(hot.window_sim_ms), hot.pairs,
      static_cast<unsigned long long>(hot.events_per_window),
      hot.median_ns_on, hot.median_ns_off, overhead, overhead_q1,
      overhead_q3);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"gate\": {\"max_overhead_percent\": %.1f, "
                "\"enforced\": %s}\n",
                max_overhead, max_overhead >= 0.0 ? "true" : "false");
  out << buf;
  out << "}\n";

  std::printf(
      "obs_overhead: span %.1f ns enabled / %.1f ns disabled / %.1f ns "
      "sampled (baseline %.1f ns); hotpath %.1f CPU ns/event on vs %.1f "
      "off (median paired overhead %+.2f%%, quartiles %+.2f%% to %+.2f%%, "
      "%d pairs); wrote %s\n",
      micro.span_enabled_ns, micro.span_disabled_ns, micro.sampled_ns,
      micro.baseline_ns, hot.median_ns_on, hot.median_ns_off, overhead,
      overhead_q1, overhead_q3, hot.pairs, out_path.c_str());

  if (max_overhead >= 0.0 && overhead > max_overhead) {
    std::fprintf(stderr,
                 "obs_overhead: FAIL — the median spans-on hotpath window "
                 "pair is %.2f%% slower than spans-off (gate: %.1f%%)\n",
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
