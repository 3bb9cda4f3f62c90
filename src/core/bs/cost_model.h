// The transmission-cost model of Section 3.1.2 (Eq. 1-3).
//
// For a query q over a routing tree whose level k holds |N_k| nodes:
//
//   result(q, N_k) = sel(q, N_k) * |N_k| / epoch(q)                  (Eq. 1)
//   trans(q)       = sum_k result(q, N_k) * k        (acquisition)   (Eq. 2)
//   trans(q)       = result(q, N)             (aggregation lower bound)
//   cost(q)        = trans(q) * (C_start + C_trans * len(q))         (Eq. 3)
//
// The aggregation lower bound makes integrating an aggregation query with
// an acquisition query conservative: it only happens when guaranteed
// beneficial.  Costs are airtime per millisecond (dimensionless rates);
// only relative values matter for rewriting decisions.
#pragma once

#include <cstdint>

#include "net/radio.h"
#include "net/topology.h"
#include "query/query.h"
#include "stats/selectivity.h"

namespace ttmqo {

/// Evaluates Eq. 1-3 against a topology, radio parameters, and a
/// selectivity estimator.
class CostModel {
 public:
  /// All references must outlive the model.  `C_start`/`C_trans` are taken
  /// from `radio` (the paper periodically measures C_start; our simulator's
  /// startup time is constant, so the configured value is exact).
  CostModel(const Topology& topology, const RadioParams& radio,
            const SelectivityEstimator& selectivity);

  /// Eq. 1: result messages per millisecond generated at level `k`.
  double ResultRate(const Query& query, std::size_t level) const;

  /// Eq. 2 (with the aggregation lower bound): transmissions per ms.
  double Transmissions(const Query& query) const;

  /// Eq. 3: expected airtime per millisecond.
  double Cost(const Query& query) const;

  /// benefit(q1, q2) = cost(q1) + cost(q2) - cost(q12); `integrated` is the
  /// already-built q12.
  double Benefit(const Query& q1, const Query& q2,
                 const Query& integrated) const;

  /// Result message length (radio header + envelope + payload), in bytes.
  double MessageLengthBytes(const Query& query) const;

  /// The selectivity estimator in use.
  const SelectivityEstimator& selectivity() const { return *selectivity_; }

  /// Number of Eq. 3 evaluations since construction (observability: the
  /// rewriter's work is proportional to these).
  std::uint64_t cost_evaluations() const { return cost_evaluations_; }

  /// Number of benefit evaluations (one per candidate merge considered).
  std::uint64_t benefit_evaluations() const { return benefit_evaluations_; }

  /// Version of the statistics feeding Eq. 1; any cached Cost/Benefit value
  /// is stale once this moves (see SelectivityEstimator::Version).
  std::uint64_t StatsVersion() const;

 private:
  const Topology* topology_;
  RadioParams radio_;
  const SelectivityEstimator* selectivity_;
  double num_sensors_;  // |N| excluding the base station
  // Plain counters: a model is never shared across threads (fig4's
  // parallel replay tasks each build their own).
  mutable std::uint64_t cost_evaluations_ = 0;
  mutable std::uint64_t benefit_evaluations_ = 0;
};

}  // namespace ttmqo
