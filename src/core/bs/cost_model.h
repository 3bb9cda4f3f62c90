// The transmission-cost model of Section 3.1.2 (Eq. 1-3).
//
// For a query q over a routing tree whose level k holds |N_k| nodes:
//
//   result(q, N_k) = sel(q, N_k) * |N_k| / epoch(q)                  (Eq. 1)
//   trans(q)       = sum_k result(q, N_k) * k        (acquisition)   (Eq. 2)
//   trans(q)       = result(q, N)             (aggregation lower bound)
//   cost(q)        = trans(q) * (C_start + C_trans * len(q))         (Eq. 3)
//
// sel(q, N_k) is the uniform-prior selectivity of q's predicates, the same
// at every level (stats/selectivity.h), so a query's cost depends on its
// structure alone.  The aggregation lower bound makes integrating an
// aggregation query with an acquisition query conservative: it only happens
// when guaranteed beneficial.  Costs are airtime per millisecond
// (dimensionless rates); only relative values matter for rewriting
// decisions.
#pragma once

#include <cstdint>

#include "net/radio.h"
#include "net/topology.h"
#include "query/query.h"

namespace ttmqo {

/// Evaluates Eq. 1-3 against a topology and radio parameters.
class CostModel {
 public:
  /// `topology` must outlive the model.  `C_start`/`C_trans` are taken
  /// from `radio` (the paper periodically measures C_start; our simulator's
  /// startup time is constant, so the configured value is exact).
  CostModel(const Topology& topology, const RadioParams& radio);

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

  /// Number of Eq. 3 evaluations since construction (observability: the
  /// rewriter's work is proportional to these).
  std::uint64_t cost_evaluations() const { return cost_evaluations_; }

  /// Number of benefit evaluations (one per candidate merge considered).
  std::uint64_t benefit_evaluations() const { return benefit_evaluations_; }

 private:
  /// Eq. 1 for a selectivity already evaluated.
  double LevelRate(double sel, SimDuration epoch, std::size_t level) const;

  const Topology* topology_;
  RadioParams radio_;
  double num_sensors_;  // |N| excluding the base station
  // Plain counters: a model is never shared across threads (fig4's
  // parallel replay tasks each build their own).
  mutable std::uint64_t cost_evaluations_ = 0;
  mutable std::uint64_t benefit_evaluations_ = 0;
};

}  // namespace ttmqo
