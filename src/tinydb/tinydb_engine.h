// The TinyDB baseline: single-query optimization, uncooperative concurrency.
//
// This engine reproduces the comparison baseline of Section 4.1: "each query
// is optimized by TinyDB, and multiple queries ... are all injected into the
// network to run concurrently without multi-query optimization".
// Behaviours modelled after TinyDB (Madden et al., TODS 2005):
//
//  * query dissemination by network-wide flood, pruned by the Semantic
//    Routing Tree for node-id and region queries (TinyDB's SRT; Section
//    3.2.2) — value-based queries flood everywhere;
//  * a fixed routing tree whose parents are chosen by link quality,
//    ignorant of the query space (Section 3.2.2);
//  * per-query epoch scheduling — every query samples and transmits on its
//    own, so concurrent queries share nothing;
//  * acquisition results forwarded as one message per row per query, hop by
//    hop along the tree;
//  * TAG-style in-network aggregation: children's partial state records are
//    merged at each tree node and sent once per epoch, staggered bottom-up
//    by tree depth.
//
// Simplification (documented in DESIGN.md): epochs are aligned to absolute
// multiples of the epoch duration in every engine, so that answer streams
// are comparable across engines; TinyDB proper phases epochs relative to
// query injection, which changes when results arrive but not how many
// messages flow per epoch.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "net/network.h"
#include "query/engine.h"
#include "routing/routing_tree.h"
#include "routing/semantic_tree.h"
#include "sensing/field_model.h"
#include "tinydb/epoch_buffer.h"
#include "tinydb/payloads.h"

namespace ttmqo {

/// The baseline engine.  One instance drives the whole network (the
/// simulator is single-threaded; per-node state is kept in a vector and
/// only "local" information is used by each node's logic).
class TinyDbEngine final : public QueryEngine {
 public:
  /// The engine installs itself as every node's receiver on `network`.
  /// `sink` (owned by the caller, may be null) receives per-epoch answers.
  TinyDbEngine(Network& network, const FieldModel& field, ResultSink* sink);

  void SubmitQuery(const Query& query) override;
  void TerminateQuery(QueryId id) override;
  std::string_view name() const override { return "tinydb-baseline"; }

  /// The fixed routing tree the engine forwards along.
  const RoutingTree& routing_tree() const { return tree_; }

  /// Queries currently running (by id, ascending).
  std::vector<QueryId> ActiveQueries() const;

 private:
  /// Partials of one epoch whose aggregation slot has not fired yet.
  struct BufferedPartials {
    SimTime epoch = 0;
    /// The node's own partial and its children's, merged on arrival.
    std::vector<PartialAggregate> partials;
  };

  /// One query installed at a node, with the node's aggregation state for
  /// it.  Removing the query drops that state with it.
  struct ActiveQuery {
    explicit ActiveQuery(const Query& q) : query(q) {}
    Query query;
    /// Epochs whose aggregation slot already fired, ascending; late
    /// partials for them are forwarded immediately.  Each epoch prunes
    /// the epochs more than 4 of its own epochs old.
    std::vector<SimTime> slots_done;
    /// Epochs with buffered partials, merged at their slot.
    std::vector<BufferedPartials> buffered;
  };

  struct NodeState {
    /// Queries installed on this node, ascending by id.
    std::vector<ActiveQuery> active;
    /// Flood de-duplication and the abort's prune, one record per query
    /// heard of (ascending by id).
    std::vector<FloodRecord> floods;
  };

  struct BsQueryState {
    explicit BsQueryState(Query q) : query(std::move(q)) {}
    Query query;
    bool terminated = false;
    /// Arrivals per open epoch, closed into the user's answers.
    EpochBuffer answers;
  };

  // --- node-side logic -----------------------------------------------
  /// Query `id` as installed at `state`, or nullptr.
  static ActiveQuery* FindActive(NodeState& state, QueryId id);
  /// The buffered partials of `epoch` in `query`, or nullptr.
  static BufferedPartials* FindBuffered(ActiveQuery& query, SimTime epoch);
  /// Handles a message addressed to `self`; the receiver is registered
  /// addressed-only, so the network never hands it overheard traffic.
  void HandleMessage(NodeId self, const Message& msg);
  void InstallQuery(NodeId self, const Query& query);
  void RemoveQuery(NodeId self, QueryId id);
  void ScheduleNextEpoch(NodeId self, QueryId id);
  void OnEpoch(NodeId self, QueryId id, SimTime epoch_time);
  void OnAggSlot(NodeId self, QueryId id, SimTime epoch_time);
  /// Forwards a received row one hop up the tree; the payload is
  /// immutable, so the message shares it.
  void ForwardRow(NodeId self, const Message& received, const RowPayload& row);
  void ForwardPartials(NodeId self, QueryId id, SimTime epoch_time,
                       std::vector<PartialAggregate> partials);

  // --- base-station-side logic ----------------------------------------
  void BsAccept(const Message& msg);
  void ScheduleEpochClose(QueryId id, SimTime epoch_time);
  void CloseEpoch(QueryId id, SimTime epoch_time);

  Network& network_;
  const FieldModel& field_;
  ResultSink* sink_;
  RoutingTree tree_;
  SemanticRoutingTree srt_;
  std::vector<NodeState> nodes_;
  std::map<QueryId, BsQueryState> bs_queries_;
};

}  // namespace ttmqo
