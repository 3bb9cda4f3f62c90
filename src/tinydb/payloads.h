// Typed radio payloads of the acquisitional query substrate.
//
// Both the TinyDB baseline and the TTMQO in-network tier are built on these
// message types: query propagation/abort floods, raw result rows, and
// partial-aggregate records.  The TTMQO tier adds shared (multi-query)
// variants in core/innet.  Both engines also share the transmission
// schedule defined here (`SlotOffset`: depth-staggered slots plus a
// per-node jitter), the per-node flood record (`FloodRecord`), the
// element-wise merge of partial aggregates, and the base station's answer
// buffer (epoch_buffer.h).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/message.h"
#include "net/topology.h"
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

/// Send slot of `node` within an epoch, as an offset from the epoch start:
/// `(MaxDepth - level) * kAggSlotMs + SourceJitter(node)`.  Deeper nodes
/// send first, so children's traffic arrives before their parent's slot.
inline SimDuration SlotOffset(const Topology& topology, NodeId node) {
  return static_cast<SimDuration>(topology.MaxDepth() -
                                  topology.HopLevels()[node]) *
             kAggSlotMs +
         SourceJitter(node);
}

/// Payload bytes of an abort notice: query id only.
inline constexpr std::size_t kAbortPayloadBytes = 2;

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

/// One node's memory of one query's propagation and abort floods.  Both
/// engines keep one per query the node has heard of and never prune it, so
/// a late copy of either flood always finds it (tier 2 must never reinstall
/// an aborted query).
struct FloodRecord {
  QueryId id = 0;
  /// Highest propagation round heard; -1 = no propagation heard yet.
  int round = -1;
  /// The node has heard the query's abort.
  bool aborted = false;
  /// The node forwarded the query's propagation, so the abort follows the
  /// same prune and it forwards that too.
  bool relayed = false;
};

/// The record of query `id` in `records` (ascending by id), inserted in
/// place with nothing heard when absent.
FloodRecord& FloodRecordOf(std::vector<FloodRecord>& records, QueryId id);

/// The record of query `id` in `records` (ascending by id), or nullptr.
const FloodRecord* FindFloodRecord(const std::vector<FloodRecord>& records,
                                   QueryId id);

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

/// Merges `from` into `into` element-wise (same spec order).
void MergePartialVectors(std::span<PartialAggregate> into,
                         std::span<const PartialAggregate> from);

}  // namespace ttmqo
