// Query answers delivered to the user at the base station.
//
// For an acquisition query, one epoch yields a set of rows (one per node
// whose reading satisfied the predicates).  For an aggregation query, one
// epoch yields one finalized value per requested aggregate.  `ResultLog`
// records the full answer stream of a run; the test suite uses it to check
// that multi-query optimization never changes query semantics.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "query/aggregate.h"
#include "query/query.h"
#include "sensing/reading.h"
#include "util/ids.h"
#include "util/time.h"

namespace ttmqo {

/// The answer of one query for one epoch.
struct EpochResult {
  QueryId query = kInvalidQueryId;
  SimTime epoch_time = 0;
  QueryKind kind = QueryKind::kAcquisition;

  /// Acquisition: matching rows, sorted by node id.
  std::vector<Reading> rows;

  /// Aggregation: finalized value per aggregate spec (same order as the
  /// query's aggregate list); nullopt for empty-set MAX/MIN/SUM/AVG.
  std::vector<std::pair<AggregateSpec, std::optional<double>>> aggregates;

  /// Reliability annotation, set only when the run tracks epoch coverage
  /// (the ARQ profile): the fraction of expected, still-alive contributors
  /// accounted for in this epoch — delivered data or affirmed "no data"
  /// through gap repair.  -1 when the run does not track coverage.
  double coverage = -1.0;
  /// Number of nodes whose data actually reached this answer (-1 when the
  /// run does not track coverage).
  int contributing_nodes = -1;

  /// Human-readable rendering.
  std::string ToString() const;
};

/// Receives per-epoch answers as a run progresses.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Called once per (query, epoch) that produced an answer.  The sink
  /// owns the answer: the engines move each one in, so it is never
  /// copied; a caller that keeps its own passes an lvalue, which copies.
  virtual void OnResult(EpochResult result) = 0;
};

/// A `ResultSink` that stores everything, keyed by (query, epoch time).
/// A later answer for the same key replaces the earlier one.
class ResultLog final : public ResultSink {
 public:
  void OnResult(EpochResult result) override;

  /// All recorded epochs of `query`, in time order.
  std::vector<const EpochResult*> ResultsFor(QueryId query) const;

  /// Every recorded result, ordered by (query, epoch time).
  std::vector<const EpochResult*> All() const;

  /// The answer of `query` at `epoch_time`, or nullptr.
  const EpochResult* Find(QueryId query, SimTime epoch_time) const;

  /// Total number of recorded (query, epoch) answers.
  std::size_t size() const { return results_.size(); }

  /// Removes all recorded results.
  void Clear() { results_.clear(); }

 private:
  std::map<std::pair<QueryId, SimTime>, EpochResult> results_;
};

/// Compares two answer streams for semantic equality.  Rows must agree on
/// every stored attribute; aggregate values must agree within `tolerance`
/// (in-network partial aggregation may reorder floating-point sums).
/// Returns an explanation of the first difference, or nullopt when equal.
std::optional<std::string> CompareResultLogs(const ResultLog& expected,
                                             const ResultLog& actual,
                                             const std::vector<Query>& queries,
                                             double tolerance = 1e-9);

}  // namespace ttmqo
