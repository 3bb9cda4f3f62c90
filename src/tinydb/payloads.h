// Typed radio payloads of the acquisitional query substrate.
//
// Both the TinyDB baseline and the TTMQO in-network tier are built on these
// message types: query propagation/abort floods, raw result rows, and
// partial-aggregate records.  The TTMQO tier adds shared (multi-query)
// variants in core/innet.
#pragma once

#include <vector>

#include "net/message.h"
#include "query/aggregate.h"
#include "query/query.h"
#include "sensing/reading.h"
#include "util/ids.h"
#include "util/time.h"

namespace ttmqo {

/// Floods a new query from the base station into the network.
struct QueryPropagationPayload final : Payload {
  static constexpr PayloadKind kKind = PayloadKind::kQueryPropagation;
  explicit QueryPropagationPayload(Query q)
      : Payload(kKind), query(std::move(q)) {}
  Query query;
};

/// Floods the termination of a query.
struct QueryAbortPayload final : Payload {
  static constexpr PayloadKind kKind = PayloadKind::kQueryAbort;
  explicit QueryAbortPayload(QueryId q) : Payload(kKind), query(q) {}
  QueryId query;
};

/// One acquisition result row for one query, forwarded hop by hop.
struct RowPayload final : Payload {
  static constexpr PayloadKind kKind = PayloadKind::kRow;
  RowPayload(QueryId q, SimTime epoch, Reading r)
      : Payload(kKind), query(q), epoch_time(epoch), row(std::move(r)) {}
  QueryId query;
  SimTime epoch_time;
  Reading row;
};

/// Partial aggregation state for one query and epoch, merged on the way up.
struct AggPayload final : Payload {
  static constexpr PayloadKind kKind = PayloadKind::kAgg;
  AggPayload(QueryId q, SimTime epoch, std::vector<PartialAggregate> p)
      : Payload(kKind), query(q), epoch_time(epoch), partials(std::move(p)) {}
  QueryId query;
  SimTime epoch_time;
  std::vector<PartialAggregate> partials;
};

/// Payload bytes of a partial-aggregate record (epoch tag + each partial).
std::size_t AggPayloadBytes(const std::vector<PartialAggregate>& partials);

}  // namespace ttmqo
