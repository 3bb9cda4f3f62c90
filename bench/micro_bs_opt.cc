// The tier-1 optimizer's scaling curve: Algorithm 1/2 throughput as the
// synthetic query list grows, written as the BENCH_bsopt.json artifact.
//
//   micro_bs_opt --curve-out=PATH        # insert/terminate curve artifact
//       [--max-queries=1000000]          # largest indexed curve point
//       [--naive-max-queries=10000]      # largest naive (oracle) curve point
//       [--naive-budget-ms=120000]       # per-point naive safety budget
//
// Without --curve-out it prints this usage and exits.
//
// The curve inserts 10^2..10^6 user queries into a fresh optimizer, once
// with the synthetic-query index (Options::use_index, the default) and once
// with the seed's naive scan, over two workload profiles: "mixed"
// (coverage-heavy: acquisition merges quickly form wide synthetics that
// cover most arrivals) and "distinct-aggs" (population-heavy: aggregation
// queries with distinct predicates cannot merge, so the synthetic set grows
// linearly).  Up to 10^5 queries, each point then terminates every query
// in a seeded shuffled order (Algorithm 2); 10^6 is insert-only, because a
// kept termination re-sums its synthetic's member costs, O(members).  The
// naive curve stops at --naive-max-queries — a fixed, deterministic cap, so
// the committed artifact's decision counts never depend on host speed —
// with --naive-budget-ms as a safety abort.  Both paths must agree exactly
// on every decision count; the binary exits non-zero on divergence.  The
// JSON artifact (BENCH_bsopt.json) carries BuildInfo provenance; ci.sh
// regenerates it and diffs the counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/bs/cost_model.h"
#include "core/bs/rewriter.h"
#include "obs/build_info.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace ttmqo {
namespace {

QueryModelParams BenchModelParams() {
  QueryModelParams params;
  params.aggregation_fraction = 0.5;
  params.predicate_selectivity = 1.0;
  params.randomize_selectivity = true;
  return params;
}

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Largest curve point that also runs the termination half.
constexpr std::size_t kMaxTerminateQueries = 100000;
// Seed of the shuffled termination order.
constexpr std::uint64_t kTerminateSeed = 11;

/// Result of inserting the first `inserted` queries of a profile stream,
/// then (when asked) terminating the first `terminated` of them.
struct CurveRun {
  bool complete = false;      ///< false: the naive safety budget fired
  std::size_t inserted = 0;
  double seconds = 0.0;       ///< InsertUserQuery only
  std::size_t synthetics = 0;
  BaseStationOptimizer::DecisionStats decisions;  ///< after the inserts
  BaseStationOptimizer::IndexStats index;         ///< after the inserts
  std::size_t terminated = 0;  ///< 0: the termination half did not run
  double terminate_seconds = 0.0;  ///< TerminateUserQuery only
  BaseStationOptimizer::DecisionStats final_decisions;  ///< after both
};

/// Inserts `count` queries drawn from a fresh model (seed 3, ids 1..count)
/// into a fresh optimizer, then, when `terminate` holds, terminates all of
/// them in a shuffled order.  Query generation happens in untimed chunks so
/// `seconds` measures only InsertUserQuery, and terminations are timed in
/// chunks of the same size.  `budget_seconds` <= 0 means unlimited.
CurveRun RunChurn(const CostModel& cost, const QueryModelParams& params,
                  std::size_t count, bool use_index, bool terminate,
                  double budget_seconds) {
  BaseStationOptimizer::Options options;
  options.use_index = use_index;
  BaseStationOptimizer optimizer(cost, options);
  RandomQueryModel model(params, 3);
  constexpr std::size_t kChunk = 8192;
  std::vector<Query> chunk;
  chunk.reserve(kChunk);
  CurveRun run;
  const auto over_budget = [&] {
    return budget_seconds > 0.0 &&
           run.seconds + run.terminate_seconds > budget_seconds;
  };
  QueryId next_id = 1;
  while (run.inserted < count) {
    chunk.clear();
    const std::size_t n = std::min(kChunk, count - run.inserted);
    for (std::size_t i = 0; i < n; ++i) chunk.push_back(model.Next(next_id++));
    const auto start = Clock::now();
    for (const Query& q : chunk) {
      (void)optimizer.InsertUserQuery(q);
    }
    run.seconds += SecondsSince(start);
    run.inserted += n;
    if (over_budget()) break;
  }
  run.complete = run.inserted == count;
  run.synthetics = optimizer.NumSynthetic();
  run.decisions = optimizer.decision_stats();
  run.index = optimizer.index_stats();
  if (!terminate || !run.complete) return run;

  std::vector<QueryId> order(count);
  std::iota(order.begin(), order.end(), QueryId{1});
  Rng rng(kTerminateSeed);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Index(i)]);
  }
  while (run.terminated < count) {
    const std::size_t end = std::min(count, run.terminated + kChunk);
    const auto start = Clock::now();
    for (std::size_t i = run.terminated; i < end; ++i) {
      (void)optimizer.TerminateUserQuery(order[i]);
    }
    run.terminate_seconds += SecondsSince(start);
    run.terminated = end;
    if (over_budget()) break;
  }
  run.complete = run.terminated == count;
  run.final_decisions = optimizer.decision_stats();
  return run;
}

void WriteRunJson(std::ostream& out, const char* name, const CurveRun& run,
                  bool with_index_stats) {
  const auto rate = [](std::size_t n, double seconds) {
    return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
  };
  out << "      \"" << name << "\": {\"complete\": "
      << (run.complete ? "true" : "false") << ", \"inserted\": "
      << run.inserted << ", \"seconds\": ";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", run.seconds);
  out << buf << ", \"inserts_per_sec\": ";
  std::snprintf(buf, sizeof(buf), "%.0f", rate(run.inserted, run.seconds));
  out << buf << ",\n        \"synthetics\": " << run.synthetics
      << ", \"covered\": " << run.decisions.covered << ", \"merged\": "
      << run.decisions.merged << ", \"standalone\": "
      << run.decisions.standalone;
  if (with_index_stats) {
    out << ",\n        \"coverage_hits\": " << run.index.coverage_hits
        << ", \"memo_hits\": " << run.index.memo_hits
        << ", \"pruned_candidates\": " << run.index.pruned_candidates
        << ", \"exact_evaluations\": " << run.index.exact_evaluations;
  }
  if (run.terminated > 0) {
    out << ",\n        \"terminated\": " << run.terminated
        << ", \"terminate_seconds\": ";
    std::snprintf(buf, sizeof(buf), "%.4f", run.terminate_seconds);
    out << buf << ", \"terminations_per_sec\": ";
    std::snprintf(buf, sizeof(buf), "%.0f",
                  rate(run.terminated, run.terminate_seconds));
    out << buf << ",\n        \"retired\": " << run.final_decisions.retired
        << ", \"rebuilt\": " << run.final_decisions.rebuilt
        << ", \"kept\": " << run.final_decisions.kept;
  }
  out << "}";
}

bool SameDecisions(const CurveRun& a, const CurveRun& b) {
  return a.synthetics == b.synthetics &&
         a.decisions.covered == b.decisions.covered &&
         a.decisions.merged == b.decisions.merged &&
         a.decisions.standalone == b.decisions.standalone &&
         a.terminated == b.terminated &&
         a.final_decisions.retired == b.final_decisions.retired &&
         a.final_decisions.rebuilt == b.final_decisions.rebuilt &&
         a.final_decisions.kept == b.final_decisions.kept;
}

int RunCurve(const std::string& out_path, std::size_t max_queries,
             std::size_t naive_max_queries, double naive_budget_ms) {
  const Topology topology = Topology::Grid(8);
  const SelectivityEstimator estimator;
  const CostModel cost(topology, RadioParams{}, estimator);

  struct Profile {
    const char* name;
    QueryModelParams params;
  };
  QueryModelParams distinct = BenchModelParams();
  distinct.aggregation_fraction = 1.0;
  const Profile profiles[] = {
      {"mixed", BenchModelParams()},
      {"distinct-aggs", distinct},
  };

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"bs_opt_churn_curve\",\n"
      << "  \"grid_side\": 8,\n  \"model_seed\": 3,\n"
      << "  \"naive_max_queries\": " << naive_max_queries << ",\n"
      << "  \"build\": ";
  obs::WriteBuildInfoJson(out, 4);
  out << ",\n  \"profiles\": [\n";

  bool first_profile = true;
  for (const Profile& profile : profiles) {
    if (!first_profile) out << ",\n";
    first_profile = false;
    out << "   {\"workload\": \"" << profile.name << "\",\n    \"curve\": [\n";
    bool first_point = true;
    for (std::size_t count : {std::size_t{100}, std::size_t{1000},
                              std::size_t{10000}, std::size_t{100000},
                              std::size_t{1000000}}) {
      if (count > max_queries) break;
      std::fprintf(stderr, "curve: %s n=%zu indexed...\n", profile.name,
                   count);
      const bool terminate = count <= kMaxTerminateQueries;
      const CurveRun indexed = RunChurn(cost, profile.params, count,
                                        /*use_index=*/true, terminate, 0.0);
      if (!first_point) out << ",\n";
      first_point = false;
      out << "     {\"queries\": " << count << ",\n";
      WriteRunJson(out, "indexed", indexed, /*with_index_stats=*/true);
      if (count <= naive_max_queries) {
        std::fprintf(stderr, "curve: %s n=%zu naive...\n", profile.name,
                     count);
        const CurveRun naive =
            RunChurn(cost, profile.params, count, /*use_index=*/false,
                     terminate, naive_budget_ms / 1000.0);
        out << ",\n";
        WriteRunJson(out, "naive", naive, /*with_index_stats=*/false);
        if (naive.complete && !SameDecisions(indexed, naive)) {
          std::cerr << "FATAL: indexed and naive decisions diverge at "
                    << profile.name << " n=" << count << "\n";
          return 1;
        }
        if (naive.complete && naive.seconds > 0.0 && indexed.seconds > 0.0) {
          const double speedup = naive.seconds / indexed.seconds;
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.2f", speedup);
          out << ",\n      \"speedup_x\": " << buf;
        }
      }
      out << "}";
    }
    out << "\n    ]}";
  }
  out << "\n  ]\n}\n";
  std::fprintf(stderr, "curve: wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ttmqo

int main(int argc, char** argv) {
  try {
    const ttmqo::Flags flags = ttmqo::Flags::Parse(argc, argv);
    const auto out = flags.GetOptional("curve-out");
    const auto max_queries =
        static_cast<std::size_t>(flags.GetInt("max-queries", 1000000));
    const auto naive_max = static_cast<std::size_t>(
        flags.GetInt("naive-max-queries", 10000));
    const double naive_budget_ms =
        flags.GetDouble("naive-budget-ms", 120000.0);
    if (ttmqo::ReportUnreadFlags(flags)) return 2;
    if (!out.has_value()) {
      std::printf(
          "usage: micro_bs_opt --curve-out=PATH [--max-queries=N] "
          "[--naive-max-queries=N] [--naive-budget-ms=MS]\n"
          "Writes the tier-1 insert/terminate scaling curve "
          "(BENCH_bsopt.json).\n");
      return 0;
    }
    return ttmqo::RunCurve(*out, max_queries, naive_max, naive_budget_ms);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_bs_opt: %s\n", e.what());
    return 1;
  }
}
