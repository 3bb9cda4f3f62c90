// Typed radio payloads of the acquisitional query substrate.
//
// Both the TinyDB baseline and the TTMQO in-network tier are built on these
// message types: query propagation/abort floods, raw result rows, and
// partial-aggregate records.  The TTMQO tier adds shared (multi-query)
// variants in core/innet.  Both engines also share the transmission
// schedule defined here: depth-staggered slots plus a per-node jitter.
#pragma once

#include <vector>

#include "net/message.h"
#include "query/aggregate.h"
#include "query/query.h"
#include "sensing/reading.h"
#include "util/ids.h"
#include "util/time.h"

namespace ttmqo {

/// Slot width of the depth-staggered schedule: a node sends its merged
/// results one slot after the level below it, so children's traffic
/// arrives before the parent transmits.
inline constexpr SimDuration kAggSlotMs = 128;

/// Upper bound of `SourceJitter`.
inline constexpr SimDuration kSourceJitterMs = 64;

/// Deterministic per-node delay in [0, kSourceJitterMs] applied to source
/// transmissions and flood forwards; it decorrelates neighboring senders.
constexpr SimDuration SourceJitter(NodeId node) {
  return (static_cast<SimDuration>(node) * 37) % (kSourceJitterMs + 1);
}

/// Floods a new query from the base station into the network.
struct QueryPropagationPayload final : TaggedPayload<QueryPropagationPayload> {
  explicit QueryPropagationPayload(Query q) : query(std::move(q)) {}
  Query query;
};

/// Floods the termination of a query.
struct QueryAbortPayload final : TaggedPayload<QueryAbortPayload> {
  explicit QueryAbortPayload(QueryId q) : query(q) {}
  QueryId query;
};

/// One acquisition result row for one query, forwarded hop by hop.
struct RowPayload final : TaggedPayload<RowPayload> {
  RowPayload(QueryId q, SimTime epoch, Reading r)
      : query(q), epoch_time(epoch), row(std::move(r)) {}
  QueryId query;
  SimTime epoch_time;
  Reading row;
};

/// Partial aggregation state for one query and epoch, merged on the way up.
struct AggPayload final : TaggedPayload<AggPayload> {
  AggPayload(QueryId q, SimTime epoch, std::vector<PartialAggregate> p)
      : query(q), epoch_time(epoch), partials(std::move(p)) {}
  QueryId query;
  SimTime epoch_time;
  std::vector<PartialAggregate> partials;
};

/// Payload bytes of a partial-aggregate record (epoch tag + each partial).
std::size_t AggPayloadBytes(const std::vector<PartialAggregate>& partials);

}  // namespace ttmqo
