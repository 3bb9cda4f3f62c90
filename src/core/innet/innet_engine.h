// Tier 2: the in-network optimization engine (Section 3.2).
//
// Runs a set of network queries (user queries in in-network-only mode,
// synthetic queries under the full two-tier scheme) with three cooperating
// optimizations the baseline lacks:
//
//  * Sharing over time (3.2.1): every node's clock fires at the common
//    epoch grid (epoch starts are divisible by the epoch duration), so all
//    queries triggered at a tick share one sample acquisition.
//  * Sharing over space (3.2.2): one source row message answers every
//    acquisition query the reading satisfies; one partial-aggregate message
//    carries all aggregation queries of a tick, identical partial vectors
//    packed once.
//  * Query-aware DAG routing (3.2.2): instead of the fixed link-quality
//    tree, each message dynamically picks parents among the sender's
//    upper-level neighbors, preferring neighbors known (via propagation
//    piggyback and overheard result traffic) to have data for the same
//    queries — enabling earlier aggregation and shared forwarding.  When
//    different queries are best served by different parents, a single
//    multicast transmission carries the per-destination split.
//
// Nodes with nothing to send or relay drop into sleep mode between ticks.
// Sleeping nodes still receive addressed traffic (modelling low-power
// listening: the sender's preamble wakes them) but do not overhear.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/innet/payloads.h"
#include "net/network.h"
#include "query/engine.h"
#include "reliable/arq.h"
#include "reliable/profile.h"
#include "routing/routing_tree.h"
#include "routing/semantic_tree.h"
#include "sensing/field_model.h"
#include "tinydb/epoch_buffer.h"
#include "tinydb/payloads.h"

namespace ttmqo {

/// Ablation switches of the in-network tier, plus its reliability
/// transport.  Timing and failover tuning are constants of
/// `innet_engine.cc`.
struct InNetOptions {
  /// Ablation: query-aware DAG parent selection; when false, messages
  /// follow the fixed routing-tree parent (but packing still applies).
  bool query_aware_routing = true;
  /// Ablation: multi-query packing of rows/partials; when false, one
  /// message per query (but DAG routing still applies).
  bool shared_messages = true;
  /// Idle nodes sleep between ticks.
  bool enable_sleep = true;
  /// Per-hop ARQ transport (acks, retransmits, quarantine) plus the
  /// base-station epoch ledger with NACK-driven gap repair and coverage
  /// annotation, liveness-driven parent failover and dissemination
  /// re-floods.  Off by default; `--reliability=arq` turns it on.
  ArqOptions arq;
};

/// Applies a named reliability profile on top of `options`:
///  * kOff — leaves everything untouched (the golden-pinned default).
///  * kArq — turns on the ARQ transport and with it liveness failover,
///           dissemination re-floods and base-station gap repair.
void ApplyReliabilityProfile(ReliabilityProfile profile, InNetOptions& options);

/// The tier-2 engine.  API mirrors `TinyDbEngine`.
class InNetworkEngine final : public QueryEngine {
 public:
  InNetworkEngine(Network& network, const FieldModel& field, ResultSink* sink,
                  InNetOptions options = {});

  void SubmitQuery(const Query& query) override;
  void TerminateQuery(QueryId id) override;
  std::string_view name() const override { return "ttmqo-innet"; }

  /// Level structure of the DAG.
  const LevelGraph& level_graph() const { return levels_; }

  /// Fallback fixed tree (used when query-aware routing is disabled and as
  /// the last-resort parent).
  const RoutingTree& routing_tree() const { return tree_; }

  /// Duplicate (query, epoch, source) rows dropped at relays and the base
  /// station.
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }

  /// Rows, partials and repair replies for already-closed epochs dropped
  /// at the base station (the `EpochBuffer` stores nothing after a close).
  std::uint64_t late_drops() const { return late_drops_; }

  /// Gap-repair requests the base station issued (arq profile only).
  std::uint64_t repair_requests() const { return repair_requests_; }

  /// Gap-repair replies accepted at the base station (arq profile only).
  std::uint64_t repair_replies() const { return repair_replies_; }

  /// The ARQ transport, or nullptr when the run does not use one.
  const ArqTransport* arq() const { return arq_ ? &*arq_ : nullptr; }

 private:
  /// Which queries each addressed next hop is responsible for.
  using DestQueries = std::map<NodeId, std::vector<QueryId>>;

  /// Liveness suspicion of one parent candidate.
  struct Suspicion {
    SimTime blacklisted_until = 0;
    SimDuration backoff = 0;
  };

  /// One network query, held once for every node that runs it.
  struct QueryEntry {
    explicit QueryEntry(const Query& q)
        : query(q), acquired(q.AcquiredAttributes()) {}
    Query query;
    /// `query.AcquiredAttributes()`, derived once.
    std::vector<Attribute> acquired;
    /// Nodes whose `active` list holds this entry.  The entry is erased
    /// when the last of them removes it, which may be long after the
    /// termination: a node down during the abort flood keeps the query.
    std::size_t installs = 0;
  };

  struct NodeState {
    /// Installed queries, ascending by id; entries of `queries_`.
    std::vector<QueryEntry*> active;
    /// Highest dissemination round seen per query (absent = never seen).
    std::map<QueryId, int> prop_round;
    std::set<QueryId> seen_abort;
    /// Queries whose propagation this node forwarded (abort floods follow
    /// the same prune).
    std::set<QueryId> relayed_propagation;
    /// Has-data facts: for the i-th query of `fact_queries` (ascending),
    /// `fact_ticks[i * width + p]` is the last tick at which the upper-level
    /// neighbor at position p of `LevelGraph::UpperNeighbors(self)` was
    /// known to have data for it (kNoFact = never), where width is that
    /// list's size.  Holds no query this node has seen aborted.
    std::vector<QueryId> fact_queries;
    std::vector<SimTime> fact_ticks;
    /// Link quality to each upper-level neighbor, by position; filled on
    /// first use.
    std::vector<double> upper_quality;
    /// Per tick: partial state per query, merged until the slot fires.
    std::map<SimTime, std::map<QueryId, std::vector<PartialAggregate>>>
        agg_buffer;
    /// Per tick: own + relayed rows packed at the slot.
    std::map<SimTime, std::vector<RowEntry>> row_buffer;
    /// Ticks whose packing slot is scheduled / has fired (ascending).
    std::vector<SimTime> slot_scheduled;
    std::vector<SimTime> slot_done;
    /// Guard for the single pending tick event (-1 = none).
    SimTime tick_scheduled_for = -1;
    /// Last time this node forwarded someone else's traffic.
    SimTime last_relay = std::numeric_limits<SimTime>::min();
    /// Whether the node produced data at its last tick.
    bool matched_last_tick = false;
    /// Liveness: last time anything was heard from each neighbor (only
    /// maintained under the arq profile).
    std::map<NodeId, SimTime> last_heard;
    /// Currently / previously blacklisted parent candidates.
    std::map<NodeId, Suspicion> suspicion;
    /// Row keys already relayed (duplicate suppression): per epoch, the
    /// packed (query, source) pairs as a sorted vector.  Keyed epoch first,
    /// so the per-tick prune drops expired epochs as one range, and a
    /// relayed row costs no tree node of its own.
    std::map<SimTime, std::vector<std::uint64_t>> seen_rows;
    /// The node's own matched reading per tick, cached for gap-repair
    /// replies (arq profile only); pruned with the per-tick horizon.
    std::map<SimTime, RowEntry> own_rows;
  };

  struct BsQueryState {
    explicit BsQueryState(Query q) : query(std::move(q)) {}
    Query query;
    bool terminated = false;
    /// Arrivals per open epoch, closed into the user's answers.
    EpochBuffer answers;
    /// Coverage ledger (arq profile only).  The expectation is *learned*:
    /// a node is expected to contribute to an epoch iff it contributed to
    /// one of the last few epochs (selective predicates make the install
    /// set a wild overestimate — most installed nodes legitimately have no
    /// matching row, and NACKing them every epoch congests the network).
    /// `last_contributed` records each node's most recent row epoch;
    /// `agg_counts` is the analogous recent-contributor-count history for
    /// aggregation queries (which have no per-node rows); `no_data` holds,
    /// per epoch, the nodes that affirmed "no data" through gap repair.
    std::map<NodeId, SimTime> last_contributed;
    std::map<SimTime, std::int64_t> agg_counts;
    std::map<SimTime, std::set<NodeId>> no_data;
  };

  // --- node-side -------------------------------------------------------
  void HandleMessage(NodeId self, const Message& msg, bool addressed);
  /// Installs `query` at `self` and returns the engine's entry for it.
  const QueryEntry& InstallQuery(NodeId self, const Query& query);
  void RemoveQuery(NodeId self, QueryId id);
  void ScheduleTick(NodeId self);
  void OnTick(NodeId self, SimTime t);
  void OnSlot(NodeId self, SimTime t);
  /// True while the packing slot of tick `t` is scheduled and has not
  /// fired: relayed traffic for `t` can still ride along.
  static bool SlotPending(const NodeState& state, SimTime t);
  /// Groups `entries` by their next-hop choice and transmits one packed
  /// message per group.
  void SendRows(NodeId self, SimTime t, std::vector<RowEntry> entries);
  void SendAgg(NodeId self, SimTime t,
               std::map<QueryId, std::vector<PartialAggregate>> partials);
  /// The query `id` when it is installed at the node, else nullptr.
  static const QueryEntry* FindActive(const NodeState& state, QueryId id);
  /// Position of `neighbor` in `LevelGraph::UpperNeighbors(self)`.
  std::size_t UpperPosition(NodeId self, NodeId neighbor) const;
  /// Link quality from `self` to each upper-level neighbor, by position.
  std::span<const double> UpperQualities(NodeId self);
  /// The upper-level neighbors `self` may route through now, as positions
  /// in `LevelGraph::UpperNeighbors(self)`: dead, suspect and quarantined
  /// candidates are filtered out (with fallbacks when that leaves none).
  /// Empty when query-aware routing is off.  The span views scratch that
  /// the next call overwrites.
  std::span<const std::size_t> UsableParents(NodeId self);
  /// Splits `queries` among `upper` (one `UsableParents` result): each
  /// query goes to the candidate known to have data for it, else to the
  /// most stable link.  Writes the per-destination split to `out`.
  void ChooseParents(NodeId self, std::span<const std::size_t> upper,
                     std::span<const QueryId> queries, DestQueries& out);
  /// Records that the upper-level neighbor at `position` of `self` had
  /// data for `queries` at `when`.  Queries `self` has seen aborted are
  /// skipped: a fact is only read for a query installed at `self`, and an
  /// aborted query is never installed again.
  void NoteHasData(NodeId self, std::size_t position,
                   std::span<const QueryId> queries, SimTime when);
  /// Liveness tracking (arq profile): records that `self` heard from
  /// `sender` now and clears any suspicion of it.
  void NoteAlive(NodeId self, NodeId sender);
  /// True when `self` should avoid routing through `candidate` (arq profile
  /// only): it is quarantined, or it has been silent past the liveness
  /// timeout.  Blacklists with bounded exponential backoff; the candidate
  /// is optimistically re-tried when the blacklist expires.
  bool SuspectParent(NodeId self, NodeId candidate);
  void MaybeSleep(NodeId self, SimTime t);

  // --- reliability (arq profile) ----------------------------------------
  /// Routes `msg` through the ARQ transport when one is attached (with the
  /// epoch cutoff as the retry deadline), directly otherwise.
  void ReliableSend(Message msg, SimTime deadline);
  /// Retry deadline of a result message for tick `t`: the earliest epoch
  /// close among the queries it serves.
  SimTime ResultDeadline(NodeId self, SimTime t,
                         const DestQueries& dest_queries) const;
  /// A reliable send exhausted its budget: re-route the surviving payload
  /// through fresh parents (bounded re-route chain).
  void OnArqGiveUp(const ArqTransport::GiveUpInfo& info);
  /// The fixed-tree child of `from` that leads to `target`, or
  /// kBaseStationId when `target` is not below `from`.
  NodeId NextHopDown(NodeId from, NodeId target) const;
  /// Base station: find epoch contributors still unaccounted halfway
  /// through the epoch and NACK them down the routing tree.
  void RepairCheck(QueryId id, SimTime epoch_time);
  void SendRepairRequest(NodeId from, NodeId to, QueryId id,
                         SimTime epoch_time, SimTime deadline,
                         std::vector<NodeId> targets);
  void HandleRepairRequest(NodeId self, const RepairRequestPayload& req);
  /// Sends `self`'s answer for (query, epoch) one hop up the tree.
  void SendRepairReply(NodeId self, QueryId id, SimTime epoch_time,
                       SimTime deadline);
  void ForwardRepairReply(NodeId self,
                          std::shared_ptr<const RepairReplyPayload> reply);
  void HandleRepairReply(NodeId self, const Message& msg,
                         const RepairReplyPayload& reply);
  /// The least-suspect upper-level neighbor for control traffic.
  NodeId ControlParent(NodeId self);

  // --- base-station-side -----------------------------------------------
  void BsAccept(const Message& msg);
  void ScheduleEpochClose(QueryId id, SimTime epoch_time);
  void CloseEpoch(QueryId id, SimTime epoch_time);

  Network& network_;
  const FieldModel& field_;
  ResultSink* sink_;
  InNetOptions options_;
  RoutingTree tree_;
  SemanticRoutingTree srt_;
  LevelGraph levels_;
  std::vector<NodeState> nodes_;
  /// Every query installed at some node, referred to by the nodes'
  /// `active` lists.
  std::map<QueryId, QueryEntry> queries_;
  std::map<QueryId, BsQueryState> bs_queries_;
  /// Present only under the arq profile; the off path talks to the network
  /// directly and stays byte-identical to the pinned goldens.
  std::optional<ArqTransport> arq_;
  /// Re-route depth of the send currently in flight (give-up chains cap).
  int current_reroute_ = 0;
  /// Buffers of the send and receive paths, reused across calls: their
  /// capacity persists, so steady-state route choices and relay filtering
  /// do not allocate.
  struct Scratch {
    /// A query still to place in ChooseParents: its facts at the node
    /// (nullptr when it is not installed there) and the oldest tick that
    /// counts as fresh.
    struct Pending {
      QueryId id;
      const SimTime* facts;
      SimTime fresh_since;
    };
    /// SendRows: the rows of one distinct query set and their split.
    struct RowGroup {
      DestQueries dests;
      std::vector<RowEntry> rows;
    };
    std::vector<std::size_t> upper;     // UsableParents' result
    std::vector<Pending> remaining;     // ChooseParents
    std::vector<QueryId> covered;       // ChooseParents
    std::vector<QueryId> best_covered;  // ChooseParents
    std::vector<QueryId> queries;       // relay filtering, SendAgg
    std::vector<RowGroup> row_groups;   // SendRows
    std::vector<const QueryEntry*> triggered;  // OnTick
    std::vector<Attribute> attrs;              // OnTick: sampled
    std::vector<QueryId> matched;              // OnTick: acquisition
    std::vector<Attribute> row_attrs;          // OnTick: projected
  } scratch_;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t late_drops_ = 0;
  std::uint64_t repair_requests_ = 0;
  std::uint64_t repair_replies_ = 0;
};

}  // namespace ttmqo
