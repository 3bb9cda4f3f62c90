#include "query/query.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace ttmqo {
namespace {

template <typename T>
void SortUnique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

std::string_view QueryKindName(QueryKind kind) {
  return kind == QueryKind::kAcquisition ? "acquisition" : "aggregation";
}

Query Query::Acquisition(QueryId id, std::vector<Attribute> attributes,
                         PredicateSet predicates, SimDuration epoch) {
  CheckArg(!attributes.empty(),
           "Query::Acquisition: attribute list must be non-empty");
  CheckArg(IsValidEpochDuration(epoch),
           "Query: epoch duration must be a positive multiple of 2048 ms");
  Query q;
  q.id_ = id;
  q.kind_ = QueryKind::kAcquisition;
  attributes.push_back(Attribute::kNodeId);
  SortUnique(attributes);
  q.attributes_ = std::move(attributes);
  q.predicates_ = std::move(predicates);
  q.epoch_ = epoch;
  q.acquired_ = q.predicates_.ReferencedAttributes();
  for (Attribute attr : q.attributes_) q.acquired_.Insert(attr);
  return q;
}

Query Query::Aggregation(QueryId id, std::vector<AggregateSpec> aggregates,
                         PredicateSet predicates, SimDuration epoch) {
  CheckArg(!aggregates.empty(),
           "Query::Aggregation: aggregate list must be non-empty");
  CheckArg(IsValidEpochDuration(epoch),
           "Query: epoch duration must be a positive multiple of 2048 ms");
  Query q;
  q.id_ = id;
  q.kind_ = QueryKind::kAggregation;
  SortUnique(aggregates);
  q.aggregates_ = std::move(aggregates);
  q.predicates_ = std::move(predicates);
  q.epoch_ = epoch;
  q.acquired_ = q.predicates_.ReferencedAttributes();
  for (const AggregateSpec& agg : q.aggregates_) {
    q.acquired_.Insert(agg.attribute);
  }
  return q;
}

std::size_t Query::ResultPayloadBytes() const {
  std::size_t bytes = 0;
  if (kind_ == QueryKind::kAcquisition) {
    for (Attribute attr : attributes_) bytes += AttributeSizeBytes(attr);
  } else {
    for (const AggregateSpec& agg : aggregates_) {
      bytes += PartialAggregate(agg).SerializedSizeBytes();
    }
  }
  return bytes;
}

Query Query::WithId(QueryId id) const {
  Query q = *this;
  q.id_ = id;
  return q;
}

Query Query::WithLifetime(SimDuration lifetime) const {
  CheckArg(lifetime == 0 || lifetime >= epoch_,
           "Query::WithLifetime: a finite lifetime must cover one epoch");
  Query q = *this;
  q.lifetime_ = lifetime;
  return q;
}

std::string Query::ToSql() const {
  std::ostringstream out;
  out << "SELECT ";
  if (kind_ == QueryKind::kAcquisition) {
    for (std::size_t i = 0; i < attributes_.size(); ++i) {
      if (i > 0) out << ", ";
      out << AttributeName(attributes_[i]);
    }
  } else {
    for (std::size_t i = 0; i < aggregates_.size(); ++i) {
      if (i > 0) out << ", ";
      out << aggregates_[i].ToString();
    }
  }
  out << " FROM sensors";
  if (!predicates_.IsUnconstrained()) {
    out << " WHERE " << predicates_.ToString();
  }
  out << " EPOCH DURATION " << epoch_;
  if (lifetime_ > 0) out << " FOR " << lifetime_;
  return out.str();
}

}  // namespace ttmqo
