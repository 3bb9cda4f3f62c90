// The interface all query-processing engines implement.
//
// An engine owns the in-network execution of a set of continuous queries
// and delivers per-epoch answers to a `ResultSink` at the base station.
// Implementations: the TinyDB baseline (`TinyDbEngine`), and the TTMQO
// engine in its three configurations (base-station tier only, in-network
// tier only, both).
#pragma once

#include "query/query.h"
#include "query/result.h"

namespace ttmqo {

/// A running query processor for one sensor network.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Registers a user query at the current simulation time.  The query's id
  /// must be unique among queries ever submitted to this engine.
  virtual void SubmitQuery(const Query& query) = 0;

  /// Terminates a previously submitted user query.
  virtual void TerminateQuery(QueryId id) = 0;

  /// Human-readable engine name for reports.
  virtual std::string_view name() const = 0;
};

/// Serialized size of a query descriptor inside a propagation message:
/// id, kind, epoch, projected attributes or aggregates, and predicates.
std::size_t PropagationPayloadBytes(const Query& query);

}  // namespace ttmqo
