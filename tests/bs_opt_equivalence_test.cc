// Differential suite for the tier-1 candidate-search index (DESIGN.md note
// 20): the indexed path (`Options::use_index`, the default) must be
// observationally identical to the seed's naive scan — byte-identical
// Actions for every insert/terminate, equal decision counters, bit-equal
// benefits and cost totals, and identical end-to-end run fingerprints.  The
// naive scan is the oracle; the index is only allowed to find the same
// answers faster.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/bs/cost_model.h"
#include "core/bs/rewriter.h"
#include "metrics/registry.h"
#include "query/parser.h"
#include "sensing/attribute.h"
#include "sweep/fingerprint.h"
#include "util/tracing.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace ttmqo {
namespace {

// Renders everything observable about a query; two queries with equal
// renderings are interchangeable for the network.
std::string Render(const Query& q) {
  return std::to_string(q.id()) + "|" + q.ToSql() + "|L" +
         std::to_string(q.lifetime());
}

std::string Render(const BaseStationOptimizer::Actions& actions) {
  std::string out = "abort[";
  for (QueryId id : actions.abort) out += std::to_string(id) + ",";
  out += "] inject[";
  for (const Query& q : actions.inject) out += Render(q) + ";";
  out += "]";
  return out;
}

// Full observable optimizer state: every synthetic query (id, network
// query, member ids) and its benefit rendered bit-exactly.
std::string Render(const BaseStationOptimizer& opt) {
  std::string out;
  for (const SyntheticQuery* sq : opt.Synthetics()) {
    char benefit[40];
    std::snprintf(benefit, sizeof(benefit), "%a", sq->benefit);
    out += Render(sq->query) + " benefit=" + benefit + " members[";
    for (const auto& [uid, uq] : sq->members) out += std::to_string(uid) + ",";
    out += "]\n";
  }
  return out;
}

// Both cost totals, bit-exactly.
std::string RenderTotals(const BaseStationOptimizer& opt) {
  char totals[96];
  std::snprintf(totals, sizeof(totals), "user_cost=%a benefit=%a",
                opt.TotalUserCost(), opt.TotalBenefit());
  return totals;
}

std::string Render(const BaseStationOptimizer::DecisionStats& d) {
  return "covered=" + std::to_string(d.covered) +
         " merged=" + std::to_string(d.merged) +
         " standalone=" + std::to_string(d.standalone) +
         " retired=" + std::to_string(d.retired) +
         " rebuilt=" + std::to_string(d.rebuilt) +
         " kept=" + std::to_string(d.kept);
}

// The tier1.terminate events a sink collected, doubles bit-exact.
std::string RenderTerminations(const CollectingTraceSink& sink) {
  std::string out;
  for (const TraceEvent& event : sink.events()) {
    if (event.kind != "tier1.terminate") continue;
    for (const auto& [key, value] : event.fields) {
      out += key + "=";
      std::visit(
          [&out](const auto& v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::string>) {
              out += v;
            } else if constexpr (std::is_same_v<T, double>) {
              char buf[40];
              std::snprintf(buf, sizeof(buf), "%a", v);
              out += buf;
            } else if constexpr (std::is_same_v<T,
                                                std::vector<std::int64_t>>) {
              for (const std::int64_t x : v) out += std::to_string(x) + ",";
            } else {
              out += std::to_string(v);
            }
          },
          value);
      out += " ";
    }
    out += "\n";
  }
  return out;
}

// Trace sinks of a differential run.  On the naive oracle alone, the
// oracle derives the canonical query on every termination while the indexed
// side derives it only when Algorithm 2's alpha test passes.  On both, every
// tier1.terminate event (leaving cost, benefit, shrank) must match.
enum class Trace { kNone, kNaive, kBoth };

// What a differential run exercised.
struct Exercised {
  BaseStationOptimizer::DecisionStats decisions;
  std::size_t max_members = 0;  // widest synthetic after any step
};

class BsOptEquivalenceTest : public ::testing::Test {
 protected:
  BsOptEquivalenceTest()
      : topology_(Topology::Grid(4)), cost_(topology_, RadioParams{}) {}

  BaseStationOptimizer Make(bool use_index) {
    BaseStationOptimizer::Options options;
    options.use_index = use_index;
    return BaseStationOptimizer(cost_, options);
  }

  // Feeds `count` queries from the model into an indexed and a naive
  // optimizer; every third insert also terminates an earlier live query.
  // Every action pair, both cost totals after every step and the final
  // populations must match byte for byte.
  void RunDifferential(const QueryModelParams& params, std::uint64_t seed,
                       std::size_t count, Trace trace = Trace::kNone,
                       Exercised* exercised = nullptr) {
    BaseStationOptimizer indexed = Make(true);
    BaseStationOptimizer naive = Make(false);
    CollectingTraceSink indexed_trace;
    CollectingTraceSink naive_trace;
    if (trace != Trace::kNone) naive.SetTraceSink(&naive_trace);
    if (trace == Trace::kBoth) {
      indexed.SetTraceSink(&indexed_trace);
    }
    RandomQueryModel model(params, seed);
    std::vector<QueryId> live;
    Exercised seen;
    const auto widest = [&] {
      for (const SyntheticQuery* sq : indexed.Synthetics()) {
        seen.max_members = std::max(seen.max_members, sq->members.size());
      }
    };
    for (QueryId id = 1; id <= count; ++id) {
      const Query q = model.Next(id);
      const auto ai = indexed.InsertUserQuery(q);
      const auto an = naive.InsertUserQuery(q);
      ASSERT_EQ(Render(ai), Render(an))
          << "insert " << id << " seed " << seed << ": " << q.ToSql();
      ASSERT_EQ(RenderTotals(indexed), RenderTotals(naive))
          << "after insert " << id << " seed " << seed;
      indexed_trace.Clear();
      naive_trace.Clear();
      widest();
      live.push_back(id);
      if (id % 3 == 0) {
        const std::size_t pick = (id * 7) % live.size();
        const QueryId gone = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        const auto ti = indexed.TerminateUserQuery(gone);
        const auto tn = naive.TerminateUserQuery(gone);
        ASSERT_EQ(Render(ti), Render(tn))
            << "terminate " << gone << " seed " << seed;
        ASSERT_EQ(RenderTotals(indexed), RenderTotals(naive))
            << "after terminate " << gone << " seed " << seed;
        if (trace != Trace::kNone) {
          ASSERT_EQ(naive_trace.CountKind("tier1.terminate"), 1u);
        }
        if (trace == Trace::kBoth) {
          ASSERT_EQ(RenderTerminations(indexed_trace),
                    RenderTerminations(naive_trace))
              << "terminate " << gone << " seed " << seed;
        }
        indexed_trace.Clear();
        naive_trace.Clear();
      }
    }
    ASSERT_EQ(Render(indexed), Render(naive)) << "seed " << seed;
    ASSERT_EQ(Render(indexed.decision_stats()),
              Render(naive.decision_stats()))
        << "seed " << seed;
    EXPECT_EQ(naive.index_stats().coverage_hits, 0u)
        << "the oracle must not touch the index";
    EXPECT_EQ(naive.index_stats().exact_evaluations, 0u);
    seen.decisions = indexed.decision_stats();
    if (exercised != nullptr) *exercised = seen;
  }

  Topology topology_;
  CostModel cost_;
};

// 20 seeds x 4 workload shapes: mixed, acquisition-only (coverage and
// chained acquisition merges), aggregation-only (distinct predicates stay
// standalone, equal predicates merge), and a skewed template pool
// (coverage-dominated).
TEST_F(BsOptEquivalenceTest, TwentySeedsAcrossFourShapesAgree) {
  QueryModelParams mixed;
  mixed.predicate_selectivity = 1.0;
  mixed.randomize_selectivity = true;

  QueryModelParams acq_only = mixed;
  acq_only.aggregation_fraction = 0.0;

  QueryModelParams agg_only = mixed;
  agg_only.aggregation_fraction = 1.0;

  QueryModelParams skewed = mixed;
  skewed.template_pool = 8;

  const QueryModelParams* shapes[] = {&mixed, &acq_only, &agg_only, &skewed};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const QueryModelParams* shape : shapes) {
      RunDifferential(*shape, seed, 120);
      if (HasFatalFailure()) return;
    }
  }
}

// Algorithm 2 where it does its work: synthetics hundreds of members wide,
// trace sinks on both paths (every tier1.terminate the indexed path emits
// from its cached member costs must match the oracle's), and a trace sink
// on the oracle alone.
TEST_F(BsOptEquivalenceTest, WideSyntheticsAndTracedTerminationsAgree) {
  QueryModelParams mixed;
  mixed.predicate_selectivity = 1.0;
  mixed.randomize_selectivity = true;

  Exercised wide;
  RunDifferential(mixed, 3, 2000, Trace::kNone, &wide);
  if (HasFatalFailure()) return;
  EXPECT_GT(wide.decisions.kept, 0u);
  EXPECT_GT(wide.decisions.rebuilt, 0u);
  EXPECT_GE(wide.max_members, 100u);

  Exercised both;
  RunDifferential(mixed, 3, 1000, Trace::kBoth, &both);
  if (HasFatalFailure()) return;
  EXPECT_GT(both.decisions.kept, 0u);
  EXPECT_GT(both.decisions.rebuilt, 0u);

  Exercised traced;
  RunDifferential(mixed, 7, 1000, Trace::kNaive, &traced);
  if (HasFatalFailure()) return;
  EXPECT_GT(traced.decisions.kept, 0u);
  EXPECT_GT(traced.decisions.rebuilt, 0u);
}

// The paper's q1/q2/q3 chained-merge example replayed at shifted ranges,
// with terminations interleaved between the chains, so the index sees
// merge -> abort -> re-insert cycles with live coverage members in the
// middle of them.
TEST_F(BsOptEquivalenceTest, InterleavedChainedMergesAgree) {
  BaseStationOptimizer indexed = Make(true);
  BaseStationOptimizer naive = Make(false);
  const auto step = [&](const char* what, auto&& fn) {
    const auto ai = fn(indexed);
    const auto an = fn(naive);
    ASSERT_EQ(Render(ai), Render(an)) << what;
  };
  QueryId id = 1;
  std::vector<QueryId> chain_tails;
  for (int rep = 0; rep < 6; ++rep) {
    const double base = 50.0 * rep;
    const QueryId q1 = id++, q2 = id++, q3 = id++, probe = id++;
    auto acq = [&](QueryId qid, double lo, double hi, SimDuration epoch) {
      return Query::Acquisition(
          qid, {Attribute::kLight},
          PredicateSet::Of({{Attribute::kLight, Interval(lo, hi)}}), epoch);
    };
    step("q1", [&](auto& o) { return o.InsertUserQuery(acq(q1, base + 280, base + 600, 4096)); });
    step("q2", [&](auto& o) { return o.InsertUserQuery(acq(q2, base + 100, base + 300, 8192)); });
    // q3 merges with q2's synthetic, and the merged query re-integrates
    // with q1's — the chained rewrite.
    step("q3", [&](auto& o) { return o.InsertUserQuery(acq(q3, base + 150, base + 500, 8192)); });
    // A covered arrival on the freshly chained synthetic.
    step("probe", [&](auto& o) { return o.InsertUserQuery(acq(probe, base + 200, base + 400, 8192)); });
    ASSERT_EQ(indexed.NumSynthetic(), naive.NumSynthetic());
    chain_tails.push_back(q2);
    // Terminate the middle member of the previous chain while this one is
    // live, forcing Algorithm 2 rebuild/keep decisions between chains.
    if (rep >= 1) {
      const QueryId gone = chain_tails[static_cast<std::size_t>(rep) - 1];
      step("chain-terminate", [&](auto& o) { return o.TerminateUserQuery(gone); });
    }
  }
  ASSERT_EQ(Render(indexed), Render(naive));
  ASSERT_EQ(Render(indexed.decision_stats()), Render(naive.decision_stats()));
  EXPECT_GT(indexed.decision_stats().merged, 0u);
  EXPECT_GT(indexed.decision_stats().covered, 0u);
}

// End-to-end: whole simulated runs (engine, network, results) fingerprint
// identically with the index on and off, and the indexed run actually
// exercises the index (registry counters move).
TEST_F(BsOptEquivalenceTest, RunFingerprintsMatchAcrossModes) {
  for (const std::uint64_t seed : {1u, 5u}) {
    RunConfig config;
    config.grid_side = 4;
    config.mode = OptimizationMode::kTwoTier;
    config.seed = seed;

    QueryModelParams params;
    params.predicate_selectivity = 1.0;
    params.randomize_selectivity = true;
    RandomQueryModel model(params, seed);
    const auto schedule =
        DynamicSchedule(model, 24, /*mean_interarrival_ms=*/4000.0,
                        /*mean_duration_ms=*/40000.0, seed);
    SimTime last_event = 0;
    for (const WorkloadEvent& event : schedule) {
      last_event = std::max(last_event, event.time);
    }
    config.duration_ms = last_event + 8 * 4096;

    MetricsRegistry registry;
    config.tier1_use_index = true;
    config.obs.registry = &registry;
    const RunResult indexed = RunExperiment(config, schedule);

    config.tier1_use_index = false;
    config.obs.registry = nullptr;
    const RunResult naive = RunExperiment(config, schedule);

    EXPECT_EQ(FingerprintRun(indexed), FingerprintRun(naive))
        << "seed " << seed;
    EXPECT_GT(
        registry.GetCounter("tier1_index_exact_evaluations_total").Value() +
            registry.GetCounter("tier1_index_coverage_hits_total").Value(),
        0.0)
        << "the indexed run must actually use the index";
  }
}

// Regression for the recursive InsertBundle the index replaced: a chain
// that re-integrates 1000 times in one insert call.  1000 aggregation
// queries with pairwise-distinct predicates are all standalone; one
// acquisition query then merges with them one at a time (aggregations
// never cover acquisitions, and every merge keeps a positive rate), so the
// old implementation recursed 1000 deep.  The iterative loop must complete
// in both modes with exactly pinned decisions.
TEST_F(BsOptEquivalenceTest, ThousandDeepMergeChainCompletes) {
  constexpr QueryId kAggs = 1000;
  for (const bool use_index : {true, false}) {
    BaseStationOptimizer opt = Make(use_index);
    for (QueryId i = 1; i <= kAggs; ++i) {
      // Thresholds stay strictly inside temp's physical range [0, 100]:
      // a predicate spanning the whole range is vacuous and dropped, which
      // would make the queries identical (and mergeable).
      const Query agg = Query::Aggregation(
          i, {{AggregateOp::kMax, Attribute::kLight}},
          PredicateSet::Of(
              {{Attribute::kTemp,
                Interval(0.0, 0.05 * static_cast<double>(i))}}),
          8192);
      (void)opt.InsertUserQuery(agg);
    }
    ASSERT_EQ(opt.NumSynthetic(), kAggs) << "use_index=" << use_index;

    const Query absorber = Query::Acquisition(
        kAggs + 1, {Attribute::kLight, Attribute::kTemp}, PredicateSet(),
        4096);
    const auto actions = opt.InsertUserQuery(absorber);
    EXPECT_EQ(opt.NumSynthetic(), 1u) << "use_index=" << use_index;
    EXPECT_EQ(actions.abort.size(), kAggs);
    EXPECT_EQ(actions.inject.size(), 1u);

    const auto& d = opt.decision_stats();
    EXPECT_EQ(d.standalone, kAggs + 1) << "use_index=" << use_index;
    EXPECT_EQ(d.merged, kAggs) << "use_index=" << use_index;
    EXPECT_EQ(d.covered, 0u) << "use_index=" << use_index;
  }
}

}  // namespace
}  // namespace ttmqo
