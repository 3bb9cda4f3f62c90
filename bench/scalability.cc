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
// seed 7, collisions 0.02, one run at a time in increasing n.  Per grid it
// records the executed events, the run's wall time, ns per event and the
// process's peak RSS (ru_maxrss) after the run.  Event counts are
// deterministic; timings and RSS depend on the host.
//
//   $ scalability --scale-out=BENCH_scale.json
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

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
constexpr SimDuration kScaleDurationMs = 81920;
constexpr std::uint64_t kScaleSeed = 7;
constexpr double kScaleCollisions = 0.02;

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
                "\"duration_ms\": %lld, \"seed\": %llu, \"collisions\": %.2f},"
                "\n",
                static_cast<long long>(kScaleDurationMs),
                static_cast<unsigned long long>(kScaleSeed), kScaleCollisions);
  out << buf;
  out << "  \"build\": ";
  obs::WriteBuildInfoJson(out);
  out << ",\n";
  out << "  \"grids\": [\n";
  TablePrinter table({"grid", "events", "wall ms", "ns/event", "maxrss MB"});
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
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const double ns_per_event =
        wall_ms * 1e6 / static_cast<double>(run.events_executed);
    const long rss_kb = MaxRssKb();
    std::snprintf(buf, sizeof(buf),
                  "    {\"n\": %zu, \"events_executed\": %llu, "
                  "\"wall_ms\": %.1f, \"ns_per_event\": %.0f, "
                  "\"ru_maxrss_kb\": %ld}%s\n",
                  side, static_cast<unsigned long long>(run.events_executed),
                  wall_ms, ns_per_event, rss_kb,
                  i + 1 < std::size(kScaleSides) ? "," : "");
    out << buf;
    table.AddRow({std::to_string(side) + "x" + std::to_string(side),
                  std::to_string(run.events_executed),
                  TablePrinter::Num(wall_ms, 1),
                  TablePrinter::Num(ns_per_event, 0),
                  TablePrinter::Num(static_cast<double>(rss_kb) / 1024.0, 1)});
  }
  out << "  ]\n";
  out << "}\n";
  std::printf("Tier-2 scale curve (ttmqo WORKLOAD_C, %lld sim-ms, seed %llu, "
              "collisions=%.2f)\n\n",
              static_cast<long long>(kScaleDurationMs),
              static_cast<unsigned long long>(kScaleSeed), kScaleCollisions);
  table.Print(std::cout);
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
