// Tier 1: the base-station query rewriter (Sections 3.1.3-3.1.4).
//
// Maintains the set of running *synthetic* queries.  `InsertUserQuery`
// implements Algorithm 1: find the synthetic query with the highest benefit
// rate (benefit / cost of the inserted query); a rate of 1 means the new
// query is covered and nothing changes in the network; a positive rate
// triggers integration, after which the updated synthetic query is
// re-inserted to exploit chained merges (the paper's q1/q2/q3 example);
// otherwise the query becomes its own synthetic query.
// `TerminateUserQuery` implements Algorithm 2: when the leaving query was
// the only member needing some requested data, the synthetic query is
// rebuilt only if cost(q) > benefit * alpha — small leftovers are tolerated
// to spare the network churn.
//
// The candidate search scales two ways (DESIGN.md note 20):
//
//  * `Options::use_index = true` (default) finds coverage candidates by
//    ordered-container lookup over (epoch, attribute-mask) and
//    (predicate-signature, epoch) buckets, memoizes Eq. 1-3 cost and
//    benefit-rate results by structural query signature, and prunes merge
//    candidates with an admissible upper bound on the benefit rate before
//    exact costing.  Eq. 1's selectivity is a pure function of the
//    predicates (the uniform prior), so no memo entry ever goes stale.
//  * `Options::use_index = false` runs the original full scan of
//    `synthetics_` per insertion.  It is kept as the oracle for the
//    differential suite (tests/bs_opt_equivalence_test.cc): both paths
//    produce byte-identical Actions and decision counts.
//
// The rewriter is a pure decision component: it returns the abort/inject
// actions and lets the engine talk to the network.  The paper's per-field
// `count` bookkeeping is realized by keeping each member query in the
// synthetic query's `members` table and re-deriving the canonical network
// query; a difference against the current network query is exactly "some
// count dropped to 0".  Algorithm 2 tests cost(q) > benefit * alpha first
// and re-derives the canonical query only when that test passes (or a trace
// sink reports `shrank`): a leftover that is tolerated anyway needs no
// count.  The indexed path keeps each member's Eq. 3 cost beside it
// (`SyntheticQuery::member_costs`), so a kept termination reads and re-sums
// cached doubles instead of re-costing every remaining member.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/bs/cost_model.h"
#include "core/bs/integration.h"
#include "query/query.h"
#include "util/tracing.h"

namespace ttmqo {

/// One synthetic query: the network query plus the user queries it serves
/// (the paper's from_list) and its current benefit.
struct SyntheticQuery {
  explicit SyntheticQuery(Query q) : query(std::move(q)) {}

  /// The query actually running in the sensor network.
  Query query;

  /// Member user queries, keyed by user query id.
  std::map<QueryId, Query> members;

  /// sum(cost(member)) - cost(query); maintained by the rewriter.
  double benefit = 0.0;

  /// Indexed-path bookkeeping (left empty by the naive oracle): each
  /// member's Eq. 3 cost, holding exactly the ids of `members` in ascending
  /// order.  `member_cost_sum` is their ascending-id running sum — the
  /// floating-point op sequence the oracle's recompute executes, so the two
  /// paths agree bit-for-bit on `benefit`.
  std::vector<std::pair<QueryId, double>> member_costs;
  double member_cost_sum = 0.0;
};

/// The tier-1 optimizer.
class BaseStationOptimizer {
 public:
  /// Synthetic query ids are allocated from here; user ids must be below.
  static constexpr QueryId kFirstSyntheticId = 1u << 20;

  struct Options {
    /// Algorithm 2's aggressiveness knob; the paper finds 0.6 best.
    double alpha = 0.6;
    /// Candidate search strategy: indexed + memoized + pruned (default) or
    /// the original naive scan (the differential-test oracle).  Decisions
    /// are identical either way; only the work done to find them differs.
    bool use_index = true;
  };

  /// Network operations a call produced: abort these synthetic queries,
  /// then inject those.  Ids never overlap between the two lists.
  struct Actions {
    std::vector<QueryId> abort;
    std::vector<Query> inject;

    bool Empty() const { return abort.empty() && inject.empty(); }
  };

  /// `cost` must outlive the optimizer.
  explicit BaseStationOptimizer(const CostModel& cost)
      : BaseStationOptimizer(cost, Options()) {}
  BaseStationOptimizer(const CostModel& cost, Options options);

  /// Algorithm 1.  The query id must be unused and below
  /// `kFirstSyntheticId`.
  Actions InsertUserQuery(const Query& query);

  /// Algorithm 2.
  Actions TerminateUserQuery(QueryId user);

  /// The synthetic query currently serving `user`, or nullptr.
  const SyntheticQuery* SyntheticOf(QueryId user) const;

  /// The synthetic query with network id `id`, or nullptr.
  const SyntheticQuery* FindSynthetic(QueryId id) const;

  /// All running synthetic queries, ascending by id.
  std::vector<const SyntheticQuery*> Synthetics() const;

  /// Number of running synthetic queries.
  std::size_t NumSynthetic() const { return synthetics_.size(); }

  /// Number of running user queries.
  std::size_t NumUserQueries() const { return user_to_synthetic_.size(); }

  /// Sum of the members' standalone costs (Eq. 3) over all synthetics.
  /// The indexed path reads each synthetic's cached member costs; the
  /// oracle costs every member afresh.
  double TotalUserCost() const;

  /// Sum of synthetic-query benefits; TotalUserCost() - cost of what
  /// actually runs.  benefit ratio = TotalBenefit() / TotalUserCost().
  /// Reads cached benefits on the same terms as TotalUserCost().
  double TotalBenefit() const;

  /// The benefit rate Beneficial(q_i, q_j) of Algorithm 1: 1 for coverage,
  /// benefit/cost(q_i) when rewritable (strictly below 1), else 0 means "no
  /// benefit".  Exposed for tests and benches.
  double BenefitRate(const Query& qi, const SyntheticQuery& qj) const;

  /// Running tally of the decisions Algorithms 1 and 2 took.
  struct DecisionStats {
    /// Algorithm 1 outcomes, one per inserted bundle.
    std::uint64_t covered = 0;     ///< absorbed, network unchanged
    std::uint64_t merged = 0;      ///< integrated into an existing synthetic
    std::uint64_t standalone = 0;  ///< became its own synthetic query
    /// Algorithm 2 outcomes, one per terminated user query.
    std::uint64_t retired = 0;  ///< last member left, synthetic aborted
    std::uint64_t rebuilt = 0;  ///< cost(leaving) > benefit * alpha
    std::uint64_t kept = 0;     ///< leftover tolerated (or nothing shrank)
  };

  /// Decision counts since construction.
  const DecisionStats& decision_stats() const { return decisions_; }

  /// Work accounting for the indexed search path (all zero when
  /// `use_index` is off).
  struct IndexStats {
    std::uint64_t coverage_hits = 0;  ///< inserts resolved by bucket lookup
    std::uint64_t memo_hits = 0;      ///< cost + benefit-rate memo hits
    std::uint64_t pruned_candidates = 0;  ///< merge candidates bound away
    std::uint64_t exact_evaluations = 0;  ///< full Eq. 1-3 rate evaluations
  };

  /// Index/memo/pruning counters since construction.
  const IndexStats& index_stats() const { return istats_; }

  /// Installs a sink for structured decision events ("tier1.insert",
  /// "tier1.benefit_estimate", "tier1.terminate"); nullptr disables
  /// tracing.  The optimizer has no clock: events carry time 0 and callers
  /// stamp them (the engine wraps the sink in a time-stamping adapter).
  /// The naive path traces a benefit estimate per scanned candidate; the
  /// indexed path only traces candidates it actually evaluated (pruned
  /// candidates never get a rate).
  void SetTraceSink(TraceSink* sink) { trace_ = sink; }

 private:
  /// Winner of one Algorithm 1 candidate search; `id` is meaningless when
  /// `rate` is 0 (no beneficial candidate).
  struct Best {
    double rate = 0.0;
    QueryId id = kInvalidQueryId;
  };

  void InsertBundle(Query net_query, std::map<QueryId, Query> members,
                    Actions& actions);
  void Absorb(QueryId sid, SyntheticQuery& sq,
              std::map<QueryId, Query> members);
  double RemoveMember(SyntheticQuery& sq, QueryId user);
  Best FindBestNaive(const Query& net_query);
  Best FindBestIndexed(const Query& net_query);
  std::optional<QueryId> CoverageLookup(const Query& net_query) const;
  double RateOf(const Query& qi, const std::string& qi_key, QueryId sid,
                const SyntheticQuery& sq);
  double CostOf(const Query& query);
  void RecomputeBenefit(SyntheticQuery& sq);
  void IndexAdd(QueryId sid, const SyntheticQuery& sq);
  void IndexRemove(QueryId sid, const SyntheticQuery& sq);
  QueryId NextSyntheticId() { return next_synthetic_id_++; }
  static void Deduplicate(Actions& actions);

  const CostModel* cost_;
  Options options_;
  QueryId next_synthetic_id_;
  std::map<QueryId, SyntheticQuery> synthetics_;
  std::map<QueryId, QueryId> user_to_synthetic_;
  DecisionStats decisions_;
  IndexStats istats_;
  TraceSink* trace_ = nullptr;

  // ---- Indexed-path state (empty/idle when use_index is off). ----
  // Eq. 3 cost by structural query signature.
  std::map<std::string, double> cost_memo_;
  // BenefitRate by (inserted, synthetic) structural signature pair.  Rates
  // depend only on the two query structures, never on ids or time.
  std::map<std::pair<std::string, std::string>, double> rate_memo_;
  // Coverage buckets: acquisition synthetics by (epoch, `AttributeSet` mask
  // of the projected attributes); aggregation synthetics by (predicate
  // signature, epoch) — aggregation coverage requires exactly equal
  // predicates (integration.cc).
  std::map<SimDuration, std::map<std::uint32_t, std::set<QueryId>>>
      acq_buckets_;
  std::map<std::pair<std::string, SimDuration>, std::set<QueryId>>
      agg_buckets_;
  // Merge-candidate scan orders, (cost descending, id descending), so the
  // monotone upper bound lets a scan stop early.  Acquisition synthetics
  // can merge with anything and are always scanned; aggregation synthetics
  // only merge with aggregation queries of exactly equal predicates, which
  // the `agg_buckets_` signature range finds directly — `agg_order_` is
  // scanned only for inserted acquisition queries.  `indexed_cost_` holds
  // the cost each synthetic was ordered by, so removal finds its entry
  // without costing the query again.
  std::set<std::pair<double, QueryId>, std::greater<std::pair<double, QueryId>>>
      acq_order_;
  std::set<std::pair<double, QueryId>, std::greater<std::pair<double, QueryId>>>
      agg_order_;
  std::map<QueryId, double> indexed_cost_;
  // Structural signature per synthetic id (computed once at index time).
  std::map<QueryId, std::string> synthetic_key_;
};

}  // namespace ttmqo
