// Shared (multi-query) radio payloads of the in-network tier.
//
// Tier 2 packs the traffic of several queries into single transmissions
// (Section 3.2.2): one source row answers every acquisition query the
// reading satisfies, and one partial-aggregate message carries the state of
// several aggregation queries (identical partial vectors are serialized
// once).  A multicast message carries a per-destination query split: each
// addressed neighbor forwards only its own subset.
//
// The query lists, the split and each query's partials are inline lists
// (util/inline_list.h): a payload is one object plus one buffer, its rows
// or its partials, and copying a row copies its queries in place.
#pragma once

#include <compare>
#include <vector>

#include "net/message.h"
#include "query/aggregate.h"
#include "query/query.h"
#include "sensing/reading.h"
#include "util/ids.h"
#include "util/inline_list.h"
#include "util/time.h"

namespace ttmqo {

/// Queries served by one row or one destination, ascending.  Six fit
/// inline: in one pass of each perfbench workload at seed 1, no sent row
/// carries more than 5 queries and no destination's list more than 6
/// (both in `paper_sweep`; `tier2_grid` and `lossy_arq` reach 3,
/// `query_churn` 4), so none spills.  DESIGN.md note 26 has the counts.
using QueryList = InlineList<QueryId, 6>;

/// One aggregation query's partial state records, in the order of its
/// aggregate list.  Queries aggregate one or two attributes; every query
/// of the perfbench workloads aggregates one.
using PartialList = InlineList<PartialAggregate, 2>;

/// Query propagation with the piggybacked "sender has data" bit the DAG
/// bootstrap relies on (Section 3.2.2, Query Propagation Phase).
struct InNetPropagationPayload final : TaggedPayload<InNetPropagationPayload> {
  InNetPropagationPayload(Query q, bool has_data, int r = 0)
      : query(std::move(q)), sender_has_data(has_data), round(r) {}
  Query query;
  /// Whether the forwarding node's current reading satisfies the query.
  bool sender_has_data;
  /// Dissemination round: 0 for the initial flood, k for the k-th retry
  /// re-flood.  Nodes re-forward a query only when the round advances, so
  /// retries reach late-recovering nodes without looping.
  int round;
};

/// One source reading and the acquisition queries it answers.
struct RowEntry {
  /// The source reading, projected to the union of the queries' attributes.
  Reading row;
  /// Queries whose predicates the reading satisfied at the source.
  QueryList queries;
};

/// One addressed destination and the queries it is responsible for.
struct DestEntry {
  NodeId dest = 0;
  QueryList queries;

  bool operator==(const DestEntry&) const = default;
  auto operator<=>(const DestEntry&) const = default;
};

/// Which queries each addressed destination is responsible for: one entry
/// per destination, ascending by destination, each list ascending.  It
/// compares as a `std::map<NodeId, std::vector<QueryId>>` of the same
/// contents would.  Nearly every split has one destination.
using DestQueries = InlineList<DestEntry, 2>;

/// The queries of `dest` in `split`, or nullptr when `dest` is not
/// addressed.
const QueryList* FindDest(const DestQueries& split, NodeId dest);

/// One aggregation query's partials in a shared aggregate message.
struct QueryPartials {
  QueryId query = kInvalidQueryId;
  PartialList partials;
};

/// The entry of `query` in `partials` (ascending by query), or nullptr.
const QueryPartials* FindPartials(const std::vector<QueryPartials>& partials,
                                  QueryId query);

/// A packed batch of source rows serving several acquisition queries.
/// Relay nodes buffer rows until their depth-staggered slot and send one
/// message per next-hop group — the "combination of several query
/// transmissions" of Section 1; a node's own reading and the rows it
/// relays ride together.
struct SharedRowPayload final : TaggedPayload<SharedRowPayload> {
  /// `own_row` of a batch that only relays other nodes' rows.
  static constexpr std::size_t kNoOwnRow = static_cast<std::size_t>(-1);

  SimTime epoch_time = 0;
  /// The packed rows.
  std::vector<RowEntry> entries;
  /// Index in `entries` of the sender's own reading, or kNoOwnRow.  A
  /// receiver learns from it which queries the sender has data for without
  /// scanning the batch.  The source id it stands for is already on the
  /// air, so it costs no payload bytes.
  std::size_t own_row = kNoOwnRow;
  /// Which queries each addressed destination is responsible for.  For a
  /// unicast this has one entry holding every query the batch answers.
  DestQueries dest_queries;
};

/// Partial aggregation state of several queries for one epoch tick.
struct SharedAggPayload final : TaggedPayload<SharedAggPayload> {
  SimTime epoch_time = 0;
  /// Partial state per query, ascending by query.
  std::vector<QueryPartials> partials;
  /// Which queries each addressed destination is responsible for.
  DestQueries dest_queries;
};

/// Base-station NACK: "I am missing the epoch contributions of `targets`
/// for (`query`, `epoch_time`) — report before `deadline`".  Travels down
/// the routing tree hop by hop (each relay keeps its own subtree's targets
/// and forwards the rest), ARQ-protected, as `MessageClass::kControl`.
struct RepairRequestPayload final : TaggedPayload<RepairRequestPayload> {
  QueryId query = kInvalidQueryId;
  SimTime epoch_time = 0;
  /// Epoch close time at the base station; replies past it are pointless.
  SimTime deadline = 0;
  std::vector<NodeId> targets;
};

/// A node's answer to a gap-repair request, forwarded up the routing tree
/// to the base station.  Either re-delivers the cached epoch row or
/// affirms "no data" — both make the node *accounted* in the base
/// station's coverage ledger.
struct RepairReplyPayload final : TaggedPayload<RepairReplyPayload> {
  QueryId query = kInvalidQueryId;
  SimTime epoch_time = 0;
  SimTime deadline = 0;
  NodeId node = 0;
  /// False when the node never heard of the query (missed dissemination):
  /// the base station then leaves it uncovered instead of trusting a
  /// meaningless "no data".
  bool knows_query = false;
  bool has_row = false;
  /// Valid when `has_row`.
  Reading row;
};

/// Serialized size of a gap-repair request.
std::size_t RepairRequestBytes(const RepairRequestPayload& payload);

/// Serialized size of a gap-repair reply.
std::size_t RepairReplyBytes(const RepairReplyPayload& payload);

/// Serialized size of a shared row message.
std::size_t SharedRowBytes(const SharedRowPayload& payload);

/// Serialized size of a shared aggregate message; identical partial vectors
/// are counted once (the paper's "packed" aggregation sharing).
std::size_t SharedAggBytes(const SharedAggPayload& payload);

}  // namespace ttmqo
