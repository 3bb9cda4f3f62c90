// Reproduces Figure 4: tier-1 behaviour under adaptive workloads.
//
// Random query model of Section 4.3 (attributes light/temp, MAX/MIN
// aggregates, random predicates, epochs 8192..24576 ms divisible by
// 4096 ms); arrivals every 40 s on average, 500 queries per workload, mean
// duration varied to control the number of concurrent queries.
//
//  (a) benefit ratio vs number of concurrent queries (paper: ~32% at 8
//      rising to ~82% at 48, alpha = 0.6);
//  (b) benefit ratio vs alpha with 8 concurrent queries (paper: best near
//      alpha = 0.6, with a shallow dependence);
//  (c) average number of synthetic queries vs concurrent queries (paper:
//      fewer than 4 even at 48, decreasing slightly as alpha grows).
//
// The figure measures tier-1 quantities (benefit ratio and synthetic-query
// counts are cost-model statistics), so the replay drives the optimizer
// directly with time-weighted sampling between workload events.
//
// The replays of each part (and the full-simulation runs of part d) are
// independent; they fan out over the sweep orchestrator's thread pool
// (--jobs) and are collected by task index, so the tables are identical
// for any job count.  Each parallel task builds its own CostModel — its
// evaluation counters are mutable and not atomic.
//
// Usage: fig4_adaptive [--part=a|b|c|all] [--queries=N] [--seed=N]
//                      [--jobs=N] [--trace-out=fig4.jsonl]
//
// --trace-out captures the tier-1 decision trace (tier1.insert /
// tier1.terminate / tier1.benefit_estimate) of the first replay of the
// first part executed — with the default --part=all that is the
// alpha=0.6, concurrency=8 run of part (a).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "core/bs/rewriter.h"
#include "metrics/table.h"
#include "metrics/trace.h"
#include "obs/session.h"
#include "query/engine.h"
#include "net/topology.h"
#include "sweep/sweep.h"
#include "util/flags.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace ttmqo {
namespace {

struct ReplayStats {
  double avg_benefit_ratio = 0.0;
  double avg_synthetic = 0.0;
  double avg_concurrent = 0.0;
  double peak_concurrent = 0.0;
  std::size_t churn_operations = 0;
};

// Plays a dynamic schedule through the optimizer, averaging statistics
// weighted by the time between workload events.  The benefit ratio charges
// the airtime of every query abort/injection flood against the savings —
// "query abortion and injection ... are also costly operations" (Section
// 3.1.4) — which is what makes alpha an interior trade-off.
ReplayStats Replay(const std::vector<WorkloadEvent>& events,
                   const CostModel& cost, double alpha,
                   std::size_t num_nodes, TraceSink* trace = nullptr) {
  BaseStationOptimizer::Options options;
  options.alpha = alpha;
  BaseStationOptimizer optimizer(cost, options);
  optimizer.SetTraceSink(trace);

  ReplayStats stats;
  double weight = 0.0;
  double user_airtime = 0.0;
  double synthetic_airtime = 0.0;
  double churn_airtime = 0.0;
  const RadioParams radio;
  SimTime prev = 0;
  for (const WorkloadEvent& event : events) {
    const double dt = static_cast<double>(event.time - prev);
    if (dt > 0 && optimizer.NumUserQueries() > 0) {
      const double user_cost = optimizer.TotalUserCost();
      user_airtime += dt * user_cost;
      synthetic_airtime += dt * (user_cost - optimizer.TotalBenefit());
      stats.avg_synthetic +=
          dt * static_cast<double>(optimizer.NumSynthetic());
      stats.avg_concurrent +=
          dt * static_cast<double>(optimizer.NumUserQueries());
      weight += dt;
    }
    prev = event.time;
    BaseStationOptimizer::Actions actions;
    if (event.kind == WorkloadEvent::Kind::kSubmit) {
      actions = optimizer.InsertUserQuery(*event.query);
      stats.peak_concurrent =
          std::max(stats.peak_concurrent,
                   static_cast<double>(optimizer.NumUserQueries()));
    } else {
      actions = optimizer.TerminateUserQuery(event.id);
    }
    // Each abort or injection floods the whole network once.
    stats.churn_operations += actions.abort.size() + actions.inject.size();
    churn_airtime += static_cast<double>(actions.abort.size() * num_nodes) *
                     radio.TransmitDurationMs(2);
    for (const Query& injected : actions.inject) {
      churn_airtime +=
          static_cast<double>(num_nodes) *
          radio.TransmitDurationMs(PropagationPayloadBytes(injected));
    }
  }
  if (weight > 0) {
    stats.avg_synthetic /= weight;
    stats.avg_concurrent /= weight;
  }
  if (user_airtime > 0) {
    stats.avg_benefit_ratio =
        (user_airtime - synthetic_airtime - churn_airtime) / user_airtime;
  }
  return stats;
}

std::vector<WorkloadEvent> MakeSchedule(std::size_t num_queries,
                                        double target_concurrency,
                                        std::uint64_t seed,
                                        std::size_t template_pool = 0) {
  QueryModelParams params;
  params.aggregation_fraction = 0.5;
  params.attributes = {Attribute::kLight, Attribute::kTemp};
  params.operators = {AggregateOp::kMax, AggregateOp::kMin};
  params.epochs = {8192, 12288, 16384, 20480, 24576};
  params.predicate_selectivity = 1.0;
  params.randomize_selectivity = true;  // "randomly select ... predicates"
  params.template_pool = template_pool;
  RandomQueryModel model(params, seed);
  const double mean_interarrival = 40'000.0;  // one query per 40 s
  return DynamicSchedule(model, num_queries, mean_interarrival,
                         target_concurrency * mean_interarrival, seed ^ 0x5eedULL);
}

/// One replay with a private cost model (its evaluation counters are
/// mutable and not atomic, so concurrent replays must not share one).
ReplayStats ReplayTask(const std::vector<WorkloadEvent>& events,
                       const Topology& topology, double alpha,
                       TraceSink* trace = nullptr) {
  const CostModel cost(topology, RadioParams{});
  return Replay(events, cost, alpha, topology.size(), trace);
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string part = flags.GetString("part", "all");
  const auto num_queries =
      static_cast<std::size_t>(flags.GetInt("queries", 500));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 17));
  const auto jobs = static_cast<unsigned>(flags.GetInt("jobs", 0));
  const auto trace_out = flags.GetOptional("trace-out");
  obs::ObsSession obs_session(obs::ObsSession::FromFlags(flags));
  if (ReportUnreadFlags(flags)) return 2;

  std::ofstream trace_file;
  std::unique_ptr<JsonlTraceWriter> trace_writer;
  if (trace_out.has_value()) {
    trace_file.open(*trace_out);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open %s\n", trace_out->c_str());
      return 1;
    }
    trace_writer = std::make_unique<JsonlTraceWriter>(trace_file);
  }
  // Hands the trace sink to the first replay of the first traced part
  // only (always task index 0, so the choice does not depend on thread
  // scheduling); a full sweep would record hundreds of thousands of
  // benefit estimates.
  TraceSink* pending_trace = trace_writer.get();
  const auto take_trace = [&pending_trace]() {
    TraceSink* t = pending_trace;
    pending_trace = nullptr;
    return t;
  };

  const Topology topology = Topology::Grid(8);

  const std::vector<double> concurrency = {8, 16, 24, 32, 40, 48};
  const std::vector<double> alphas = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2};

  std::printf("Figure 4: adaptive workloads (%zu queries per run, 40s mean "
              "inter-arrival, 8x8 grid)\n\n",
              num_queries);

  if (part == "a" || part == "all") {
    std::printf("(a) benefit ratio vs concurrent queries (alpha = 0.6)\n");
    TablePrinter table({"target concurrency", "measured avg", "benefit ratio %"});
    std::vector<ReplayStats> stats(concurrency.size());
    TraceSink* const trace = take_trace();
    ParallelFor(concurrency.size(), jobs, [&](std::size_t i) {
      stats[i] = ReplayTask(MakeSchedule(num_queries, concurrency[i], seed),
                            topology, 0.6, i == 0 ? trace : nullptr);
    });
    for (std::size_t i = 0; i < concurrency.size(); ++i) {
      table.AddRow({TablePrinter::Num(concurrency[i], 0),
                    TablePrinter::Num(stats[i].avg_concurrent, 1),
                    TablePrinter::Num(stats[i].avg_benefit_ratio * 100.0, 1)});
    }
    table.Print(std::cout);
    std::printf("\n");
  }

  if (part == "b" || part == "all") {
    std::printf("(b) benefit ratio vs alpha (8 concurrent queries)\n");
    TablePrinter table({"alpha", "benefit ratio %", "abort/inject ops"});
    std::vector<ReplayStats> stats(alphas.size());
    TraceSink* const trace = take_trace();
    ParallelFor(alphas.size(), jobs, [&](std::size_t i) {
      stats[i] = ReplayTask(MakeSchedule(num_queries, 8, seed), topology,
                            alphas[i], i == 0 ? trace : nullptr);
    });
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      table.AddRow({TablePrinter::Num(alphas[i], 1),
                    TablePrinter::Num(stats[i].avg_benefit_ratio * 100.0, 2),
                    std::to_string(stats[i].churn_operations)});
    }
    table.Print(std::cout);
    std::printf("\n");
  }

  if (part == "e" || part == "all") {
    // Section 4.3 conjectures: "Though we do not study skewed query
    // workload, we expect the similarity to be greater among such
    // workload, and the benefit can be even bigger."  Validate it: draw
    // queries from a fixed template pool with an 80/20 skew and compare
    // the benefit ratio against fully random draws.
    std::printf("(e) benefit ratio: random vs skewed workloads "
                "(alpha = 0.6)\n");
    TablePrinter table({"target concurrency", "random %",
                        "skewed (20 templates) %", "skewed (8 templates) %"});
    const std::vector<double> targets = {8.0, 24.0, 48.0};
    const std::vector<std::size_t> pools = {0, 20, 8};
    std::vector<ReplayStats> stats(targets.size() * pools.size());
    ParallelFor(stats.size(), jobs, [&](std::size_t i) {
      const double c = targets[i / pools.size()];
      const std::size_t pool = pools[i % pools.size()];
      stats[i] = ReplayTask(MakeSchedule(num_queries, c, seed, pool),
                            topology, 0.6);
    });
    for (std::size_t r = 0; r < targets.size(); ++r) {
      std::vector<std::string> row = {TablePrinter::Num(targets[r], 0)};
      for (std::size_t p = 0; p < pools.size(); ++p) {
        row.push_back(TablePrinter::Num(
            stats[r * pools.size() + p].avg_benefit_ratio * 100, 1));
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
    std::printf("\n");
  }

  if (part == "d" || part == "all") {
    // Cross-validation: the benefit ratio above is a cost-model statistic;
    // here the same dynamic workloads run through the full radio simulator
    // and we report the *measured* transmission-time savings of TTMQO over
    // the baseline.  Scaled down (fewer queries, 16 nodes) to keep the
    // bench fast.
    std::printf("(d) network-measured savings vs concurrent queries "
                "(full simulation, 4x4 grid, %d queries)\n",
                60);
    TablePrinter table({"target concurrency", "baseline avg tx %",
                        "ttmqo avg tx %", "measured savings %"});
    const std::vector<double> targets = {4.0, 8.0, 16.0};
    std::vector<RunUnit> units;
    for (const double c : targets) {
      auto schedule = MakeSchedule(60, c, seed);
      SimTime end = 0;
      for (const WorkloadEvent& event : schedule) {
        end = std::max(end, event.time);
      }
      for (OptimizationMode mode :
           {OptimizationMode::kBaseline, OptimizationMode::kTwoTier}) {
        RunUnit unit;
        unit.config.grid_side = 4;
        unit.config.mode = mode;
        unit.config.duration_ms = end + 4 * 24576;
        unit.config.seed = seed;
        unit.config.channel.collision_prob = 0.02;
        unit.schedule = schedule;
        units.push_back(std::move(unit));
      }
    }
    const std::vector<TimedRunResult> results = RunMany(units, jobs);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const double baseline =
          results[2 * i].run.summary.avg_transmission_fraction * 100.0;
      const double ttmqo =
          results[2 * i + 1].run.summary.avg_transmission_fraction * 100.0;
      table.AddRow({TablePrinter::Num(targets[i], 0),
                    TablePrinter::Num(baseline, 4),
                    TablePrinter::Num(ttmqo, 4),
                    TablePrinter::Num(SavingsPercent(baseline, ttmqo), 1)});
    }
    table.Print(std::cout);
    std::printf("\n");
  }

  if (part == "c" || part == "all") {
    std::printf("(c) average number of synthetic queries\n");
    TablePrinter table({"target concurrency", "alpha=0.2", "alpha=0.6",
                        "alpha=1.0"});
    const std::vector<double> part_c_alphas = {0.2, 0.6, 1.0};
    std::vector<ReplayStats> stats(concurrency.size() * part_c_alphas.size());
    ParallelFor(stats.size(), jobs, [&](std::size_t i) {
      const double c = concurrency[i / part_c_alphas.size()];
      const double alpha = part_c_alphas[i % part_c_alphas.size()];
      stats[i] = ReplayTask(MakeSchedule(num_queries, c, seed), topology,
                            alpha);
    });
    for (std::size_t r = 0; r < concurrency.size(); ++r) {
      std::vector<std::string> row = {TablePrinter::Num(concurrency[r], 0)};
      for (std::size_t a = 0; a < part_c_alphas.size(); ++a) {
        row.push_back(TablePrinter::Num(
            stats[r * part_c_alphas.size() + a].avg_synthetic, 2));
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
    std::printf("\n");
  }
  if (trace_writer != nullptr) {
    trace_writer->Flush();
    std::printf("wrote %llu trace events to %s\n",
                static_cast<unsigned long long>(trace_writer->events()),
                trace_out->c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ttmqo

int main(int argc, char** argv) { return ttmqo::Main(argc, argv); }
