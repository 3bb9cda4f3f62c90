// TinyDB-style continuous queries.
//
// A query is either a *data acquisition* query (projects raw attributes) or
// an *aggregation* query (computes aggregates); exactly one of
// `attribute_list` / `agg_list` is non-empty (Section 3.1.1).  Every query
// carries a conjunction of range predicates and an epoch duration that sets
// how often the network is sampled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "query/aggregate.h"
#include "query/predicate.h"
#include "util/ids.h"
#include "util/time.h"

namespace ttmqo {

/// Whether a query returns raw tuples or aggregate values.
enum class QueryKind : std::uint8_t { kAcquisition, kAggregation };

/// Name of a query kind for logs ("acquisition"/"aggregation").
std::string_view QueryKindName(QueryKind kind);

/// An immutable continuous query.
class Query {
 public:
  /// Builds a data acquisition query projecting `attributes`.  `nodeid` is
  /// always included in the projection (TinyDB result tuples carry their
  /// source).  Throws on an invalid epoch or empty attribute list.
  static Query Acquisition(QueryId id, std::vector<Attribute> attributes,
                           PredicateSet predicates, SimDuration epoch);

  /// Builds an aggregation query computing `aggregates`.  Throws on an
  /// invalid epoch or empty aggregate list.
  static Query Aggregation(QueryId id, std::vector<AggregateSpec> aggregates,
                           PredicateSet predicates, SimDuration epoch);

  /// The query's unique identifier.
  QueryId id() const { return id_; }

  /// Acquisition or aggregation.
  QueryKind kind() const { return kind_; }

  /// Projected attributes (sorted, unique; empty for aggregation queries).
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Requested aggregates (sorted, unique; empty for acquisition queries).
  const std::vector<AggregateSpec>& aggregates() const { return aggregates_; }

  /// The WHERE conjunction.
  const PredicateSet& predicates() const { return predicates_; }

  /// The epoch duration in milliseconds.
  SimDuration epoch() const { return epoch_; }

  /// How long the query runs after submission (TinyDB's lifetime clause,
  /// `FOR <ms>`); 0 = continuous until explicitly terminated.
  SimDuration lifetime() const { return lifetime_; }

  /// Returns a copy with the given lifetime (0 = continuous).  A non-zero
  /// lifetime must cover at least one epoch.
  Query WithLifetime(SimDuration lifetime) const;

  /// Attributes a sensor must physically sample to evaluate this query:
  /// the projection (or aggregate inputs) plus every predicate attribute.
  /// Derived once, at construction; iterates in attribute order.
  AttributeSet AcquiredAttributes() const { return acquired_; }

  /// Payload bytes of one result row: attribute values for acquisition
  /// queries, partial state records for aggregation queries.
  std::size_t ResultPayloadBytes() const;

  /// Returns a copy with a different id (used when synthesizing queries).
  Query WithId(QueryId id) const;

  /// The query rendered in the TinyDB SQL dialect, e.g.
  /// "SELECT MAX(light) FROM sensors WHERE temp >= 20 EPOCH DURATION 4096".
  std::string ToSql() const;

 private:
  Query() = default;

  QueryId id_ = kInvalidQueryId;
  QueryKind kind_ = QueryKind::kAcquisition;
  // With the one-byte `kind_`, this set fits in the four bytes an
  // int-sized `kind_` took: a Query is no larger for it.
  AttributeSet acquired_;
  std::vector<Attribute> attributes_;
  std::vector<AggregateSpec> aggregates_;
  PredicateSet predicates_;
  SimDuration epoch_ = kMinEpochDurationMs;
  SimDuration lifetime_ = 0;
};

}  // namespace ttmqo
