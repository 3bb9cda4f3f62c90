// Scalability study (extension): how the savings of each tier scale with
// network size.  The paper evaluates 16 and 64 nodes; this sweep extends
// the axis to 144 nodes and adds a query-count axis (8..32 concurrent
// static queries drawn from the random model).
//
// All (grid, mode) and (query count, mode) cells are independent
// simulations; they are fanned out over the sweep orchestrator's thread
// pool and collected by task index, so the printed tables are identical
// for any --jobs value.
//
// Usage: scalability [--duration-ms=N] [--seed=N] [--collisions=P]
//                    [--jobs=N]  (0 = hardware concurrency)
//
// With --scale-out=FILE it instead measures the per-event cost curve of
// tier 2 and writes it as a BENCH_*.json artifact (BENCH_scale.json):
// ttmqo WorkloadC on n x n grids, n in {10, 20, 30, 40, 60}, 81920 sim-ms,
// seed 7, collisions 0.02, one run at a time, in 5 passes: each pass runs
// every grid once in increasing n, so a drift in the host's load spreads
// over all grids instead of landing on the last ones.  Per grid it records
// the executed events, the median pass's wall time and ns per event, the
// process's peak RSS (ru_maxrss) after the grid's first pass, and the run's
// delivery: rows expected and delivered over all queries, and the smallest
// per-query completeness.  Event counts and delivery are deterministic, and
// the binary exits 1 if any pass differs from the first in them; timings
// and RSS depend on the host.  It also records `ratio_60_10`, the 60x60
// grid's ns per event over the 10x10 grid's within each pass (a pass runs
// every grid within about a second, so both sides see the same host load),
// as the median, min and max over the passes, and prints it under the
// table.
//
//   $ scalability --scale-out=BENCH_scale.json
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "metrics/table.h"
#include "obs/build_info.h"
#include "obs/session.h"
#include "sweep/sweep.h"
#include "util/flags.h"
#include "workload/runner.h"
#include "workload/static_workloads.h"

namespace ttmqo {
namespace {

constexpr OptimizationMode kModes[] = {OptimizationMode::kBaseline,
                                       OptimizationMode::kTwoTier};

// The scale curve's fixed parameters (see the header comment).
constexpr std::size_t kScaleSides[] = {10, 20, 30, 40, 60};
static_assert(kScaleSides[0] == 10 &&
                  kScaleSides[std::size(kScaleSides) - 1] == 60,
              "ratio_60_10 compares the first grid with the last");
constexpr SimDuration kScaleDurationMs = 81920;
constexpr std::uint64_t kScaleSeed = 7;
constexpr double kScaleCollisions = 0.02;
// Passes per grid: a 10x10 run takes about 20 ms, and single passes of one
// build spread by a third there, so each point is the median pass.
constexpr int kScalePasses = 5;

// What one pass of a grid must repeat exactly.
struct ScaleCounts {
  std::uint64_t events = 0;
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  double min_completeness = 0.0;

  bool operator==(const ScaleCounts&) const = default;
};

// One grid's point on the curve, filled in pass by pass.
struct ScalePoint {
  ScaleCounts counts;
  /// Wall time of each pass, in pass order.
  std::vector<double> walls_ms;
  long rss_kb = 0;
};

long MaxRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

int WriteScaleCurve(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open output file: " + path);
  out << "{\n";
  out << "  \"bench\": \"scale\",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"mode\": \"ttmqo\", \"workload\": \"C\", "
                "\"duration_ms\": %lld, \"seed\": %llu, \"collisions\": %.2f, "
                "\"passes\": %d},\n",
                static_cast<long long>(kScaleDurationMs),
                static_cast<unsigned long long>(kScaleSeed), kScaleCollisions,
                kScalePasses);
  out << buf;
  out << "  \"build\": ";
  obs::WriteBuildInfoJson(out);
  out << ",\n";
  out << "  \"grids\": [\n";
  TablePrinter table({"grid", "events", "wall ms", "ns/event", "maxrss MB",
                      "rows expected", "rows delivered", "min completeness"});
  std::vector<ScalePoint> points(std::size(kScaleSides));
  for (int pass = 0; pass < kScalePasses; ++pass) {
    for (std::size_t i = 0; i < std::size(kScaleSides); ++i) {
      const std::size_t side = kScaleSides[i];
      RunConfig config;
      config.grid_side = side;
      config.mode = OptimizationMode::kTwoTier;
      config.duration_ms = kScaleDurationMs;
      config.seed = kScaleSeed;
      config.channel.collision_prob = kScaleCollisions;
      const auto start = std::chrono::steady_clock::now();
      const RunResult run = RunExperiment(config, StaticSchedule(WorkloadC()));
      ScalePoint& point = points[i];
      point.walls_ms.push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
      ScaleCounts pass_counts;
      pass_counts.events = run.events_executed;
      for (const auto& [id, delivery] : run.summary.delivery) {
        pass_counts.expected += delivery.expected;
        pass_counts.delivered += delivery.delivered;
      }
      pass_counts.min_completeness = run.summary.MinDeliveryCompleteness();
      if (pass == 0) {
        point.counts = pass_counts;
        point.rss_kb = MaxRssKb();
      } else if (pass_counts != point.counts) {
        std::fprintf(stderr,
                     "scalability: pass %d of the %zux%zu grid differs from "
                     "the first in events, rows or completeness\n",
                     pass + 1, side, side);
        return 1;
      }
    }
  }
  for (std::size_t i = 0; i < std::size(kScaleSides); ++i) {
    const std::size_t side = kScaleSides[i];
    const ScaleCounts& counts = points[i].counts;
    // A sorted copy: the ratio below pairs the grids' walls pass by pass.
    std::vector<double> walls_ms = points[i].walls_ms;
    std::sort(walls_ms.begin(), walls_ms.end());
    const double wall_ms = walls_ms[walls_ms.size() / 2];
    const double ns_per_event =
        wall_ms * 1e6 / static_cast<double>(counts.events);
    const long rss_kb = points[i].rss_kb;
    std::snprintf(buf, sizeof(buf),
                  "    {\"n\": %zu, \"events_executed\": %llu, "
                  "\"wall_ms\": %.1f, \"ns_per_event\": %.0f, "
                  "\"ru_maxrss_kb\": %ld, \"rows_expected\": %llu, "
                  "\"rows_delivered\": %llu, \"min_completeness\": %.4f}%s\n",
                  side, static_cast<unsigned long long>(counts.events),
                  wall_ms, ns_per_event, rss_kb,
                  static_cast<unsigned long long>(counts.expected),
                  static_cast<unsigned long long>(counts.delivered),
                  counts.min_completeness,
                  i + 1 < std::size(kScaleSides) ? "," : "");
    out << buf;
    table.AddRow({std::to_string(side) + "x" + std::to_string(side),
                  std::to_string(counts.events),
                  TablePrinter::Num(wall_ms, 1),
                  TablePrinter::Num(ns_per_event, 0),
                  TablePrinter::Num(static_cast<double>(rss_kb) / 1024.0, 1),
                  std::to_string(counts.expected),
                  std::to_string(counts.delivered),
                  TablePrinter::Num(counts.min_completeness, 4)});
  }
  // Each pass's 60x60 / 10x10 cost per event; the counts are equal in
  // every pass.
  const ScalePoint& small = points.front();
  const ScalePoint& large = points.back();
  std::vector<double> ratios;
  for (int pass = 0; pass < kScalePasses; ++pass) {
    const auto p = static_cast<std::size_t>(pass);
    ratios.push_back(
        (large.walls_ms[p] / static_cast<double>(large.counts.events)) /
        (small.walls_ms[p] / static_cast<double>(small.counts.events)));
  }
  std::sort(ratios.begin(), ratios.end());
  const double ratio_median = ratios[ratios.size() / 2];
  out << "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"ratio_60_10\": {\"median\": %.2f, \"min\": %.2f, "
                "\"max\": %.2f}\n",
                ratio_median, ratios.front(), ratios.back());
  out << buf;
  out << "}\n";
  std::printf("Tier-2 scale curve (ttmqo WORKLOAD_C, %lld sim-ms, seed %llu, "
              "collisions=%.2f; wall time is the median of %d passes)\n\n",
              static_cast<long long>(kScaleDurationMs),
              static_cast<unsigned long long>(kScaleSeed), kScaleCollisions,
              kScalePasses);
  table.Print(std::cout);
  std::printf("\n60x60 / 10x10 ns per event within a pass: median %.2fx "
              "(min %.2fx, max %.2fx over %d passes)\n",
              ratio_median, ratios.front(), ratios.back(), kScalePasses);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (const auto scale_out = flags.GetOptional("scale-out")) {
    obs::ObsSession obs_session(obs::ObsSession::FromFlags(flags));
    if (ReportUnreadFlags(flags)) return 2;
    return WriteScaleCurve(*scale_out);
  }
  const SimDuration duration = flags.GetInt("duration-ms", 20 * 12288);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 77));
  const double collisions = flags.GetDouble("collisions", 0.02);
  const auto jobs = static_cast<unsigned>(flags.GetInt("jobs", 0));
  obs::ObsSession obs_session(obs::ObsSession::FromFlags(flags));
  if (ReportUnreadFlags(flags)) return 2;

  std::printf("Scalability of TTMQO savings (WORKLOAD_C, collisions=%.3f, "
              "%lld ms)\n\n",
              collisions, static_cast<long long>(duration));

  const auto base_config = [&](std::size_t side, OptimizationMode mode) {
    RunConfig config;
    config.grid_side = side;
    config.mode = mode;
    config.duration_ms = duration;
    config.seed = seed;
    config.channel.collision_prob = collisions;
    return config;
  };

  // Axis 1: network size.  Axis 2: number of concurrent static queries on
  // an 8x8 grid.  Both axes go into one task list so the pool stays busy.
  const std::size_t sides[] = {4, 6, 8, 10, 12};
  const std::size_t counts[] = {4, 8, 16, 32};
  std::vector<RunUnit> units;
  for (const std::size_t side : sides) {
    for (const OptimizationMode mode : kModes) {
      RunUnit unit;
      unit.config = base_config(side, mode);
      unit.schedule = StaticSchedule(WorkloadC());
      units.push_back(std::move(unit));
    }
  }
  for (const std::size_t count : counts) {
    QueryModelParams params;
    params.predicate_selectivity = 1.0;
    params.randomize_selectivity = true;
    RandomQueryModel model(params, seed);
    std::vector<Query> queries;
    for (QueryId i = 1; i <= count; ++i) queries.push_back(model.Next(i));
    for (const OptimizationMode mode : kModes) {
      RunUnit unit;
      unit.config = base_config(8, mode);
      unit.schedule = StaticSchedule(queries);
      units.push_back(std::move(unit));
    }
  }

  const std::vector<TimedRunResult> results = RunMany(units, jobs);

  std::size_t next = 0;
  {
    TablePrinter table({"nodes", "baseline avg tx %", "ttmqo avg tx %",
                        "savings %"});
    for (const std::size_t side : sides) {
      const double baseline =
          results[next++].run.summary.avg_transmission_fraction * 100.0;
      const double ttmqo =
          results[next++].run.summary.avg_transmission_fraction * 100.0;
      table.AddRow({std::to_string(side * side),
                    TablePrinter::Num(baseline, 4),
                    TablePrinter::Num(ttmqo, 4),
                    TablePrinter::Num(SavingsPercent(baseline, ttmqo), 1)});
    }
    std::printf("--- savings vs network size ---\n");
    table.Print(std::cout);
    std::printf("\n");
  }
  {
    TablePrinter table({"queries", "baseline avg tx %", "ttmqo avg tx %",
                        "savings %", "synthetic queries"});
    for (const std::size_t count : counts) {
      const double baseline =
          results[next++].run.summary.avg_transmission_fraction * 100.0;
      const RunResult& ttmqo_run = results[next++].run;
      const double ttmqo =
          ttmqo_run.summary.avg_transmission_fraction * 100.0;
      table.AddRow({std::to_string(count), TablePrinter::Num(baseline, 4),
                    TablePrinter::Num(ttmqo, 4),
                    TablePrinter::Num(SavingsPercent(baseline, ttmqo), 1),
                    TablePrinter::Num(ttmqo_run.avg_network_queries, 2)});
    }
    std::printf("--- savings vs concurrent queries (8x8 grid) ---\n");
    table.Print(std::cout);
  }
  return 0;
}

}  // namespace
}  // namespace ttmqo

int main(int argc, char** argv) {
  try {
    return ttmqo::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scalability: %s\n", e.what());
    return 1;
  }
}
