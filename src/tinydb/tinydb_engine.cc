#include "tinydb/tinydb_engine.h"

#include <algorithm>

#include "util/check.h"
#include "util/mathx.h"

namespace ttmqo {
namespace {

// Extra bytes a result payload carries besides the values: query id (2) and
// an epoch tag (2).
constexpr std::size_t kResultEnvelopeBytes = 4;

// The first record of the id-ascending `records` whose id is not below `id`.
template <typename Records>
auto LowerBoundFlood(Records& records, QueryId id) {
  return std::lower_bound(
      records.begin(), records.end(), id,
      [](const FloodRecord& record, QueryId key) { return record.id < key; });
}

// The first query of the id-ascending `active` whose id is not below `id`.
template <typename Active>
auto LowerBoundActive(Active& active, QueryId id) {
  return std::lower_bound(
      active.begin(), active.end(), id,
      [](const auto& query, QueryId key) { return query.query.id() < key; });
}

}  // namespace

std::size_t AggPayloadBytes(const std::vector<PartialAggregate>& partials) {
  std::size_t bytes = kResultEnvelopeBytes;
  for (const PartialAggregate& p : partials) bytes += p.SerializedSizeBytes();
  return bytes;
}

void MergePartialVectors(std::span<PartialAggregate> into,
                         std::span<const PartialAggregate> from) {
  Check(into.size() == from.size(),
        "partial aggregate vectors must align by spec");
  for (std::size_t i = 0; i < into.size(); ++i) into[i].Merge(from[i]);
}

FloodRecord& FloodRecordOf(std::vector<FloodRecord>& records, QueryId id) {
  const auto it = LowerBoundFlood(records, id);
  if (it != records.end() && it->id == id) return *it;
  return *records.insert(it, FloodRecord{.id = id});
}

const FloodRecord* FindFloodRecord(const std::vector<FloodRecord>& records,
                                   QueryId id) {
  const auto it = LowerBoundFlood(records, id);
  return it != records.end() && it->id == id ? &*it : nullptr;
}

TinyDbEngine::TinyDbEngine(Network& network, const FieldModel& field,
                           ResultSink* sink)
    : network_(network),
      field_(field),
      sink_(sink),
      tree_(network.topology(), network.link_quality()),
      srt_(network.topology(), tree_),
      nodes_(network.topology().size()) {
  for (NodeId node : network_.topology().AllNodes()) {
    // The baseline never exploits overhearing.
    network_.SetReceiver(
        node,
        [this, node](const Message& msg, bool /*addressed*/) {
          HandleMessage(node, msg);
        },
        Network::Hearing::kAddressedOnly);
  }
}

std::vector<QueryId> TinyDbEngine::ActiveQueries() const {
  std::vector<QueryId> ids;
  for (const auto& [id, state] : bs_queries_) {
    if (!state.terminated) ids.push_back(id);
  }
  return ids;
}

void TinyDbEngine::SubmitQuery(const Query& query) {
  CheckArg(!bs_queries_.contains(query.id()),
           "TinyDbEngine: duplicate query id");
  bs_queries_.emplace(query.id(), BsQueryState(query));
  FloodRecordOf(nodes_[kBaseStationId].floods, query.id()).round = 0;

  Message msg;
  msg.cls = MessageClass::kQueryPropagation;
  msg.mode = AddressMode::kBroadcast;
  msg.sender = kBaseStationId;
  msg.payload_bytes = PropagationPayloadBytes(query);
  msg.payload = std::make_shared<QueryPropagationPayload>(query);
  network_.Send(std::move(msg));

  const SimTime first = AlignUp(network_.sim().Now() + 1, query.epoch());
  ScheduleEpochClose(query.id(), first);
}

void TinyDbEngine::TerminateQuery(QueryId id) {
  auto it = bs_queries_.find(id);
  CheckArg(it != bs_queries_.end() && !it->second.terminated,
           "TinyDbEngine: terminating unknown or finished query");
  it->second.terminated = true;
  it->second.answers.Clear();
  FloodRecordOf(nodes_[kBaseStationId].floods, id).aborted = true;

  Message msg;
  msg.cls = MessageClass::kQueryAbort;
  msg.mode = AddressMode::kBroadcast;
  msg.sender = kBaseStationId;
  msg.payload_bytes = kAbortPayloadBytes;
  msg.payload = std::make_shared<QueryAbortPayload>(id);
  network_.Send(std::move(msg));
}

// ---------------------------------------------------------------------
// Node-side logic
// ---------------------------------------------------------------------

void TinyDbEngine::HandleMessage(NodeId self, const Message& msg) {
  if (const auto* prop =
          PayloadAs<QueryPropagationPayload>(msg.payload.get())) {
    // Each query floods once, as round 0.  Only the round is checked: a
    // propagation that reaches a node after the query's abort installs it.
    FloodRecord& flood = FloodRecordOf(nodes_[self].floods, prop->query.id());
    if (flood.round >= 0) return;
    flood.round = 0;
    if (self != kBaseStationId) {
      // SRT: value-based predicates cannot exclude a node in advance;
      // constraints on the constant attributes (nodeid, position) can, both
      // for the node itself and for its subtree.
      const PredicateSet& predicates = prop->query.predicates();
      if (NodeMayMatch(self, network_.topology().PositionOf(self),
                       predicates)) {
        InstallQuery(self, prop->query);
      }
      if (srt_.ShouldForward(tree_, self, predicates)) {
        flood.relayed = true;
        // Re-broadcast to continue the dissemination, staggered to limit
        // contention.
        network_.sim().ScheduleAfter(SourceJitter(self) + 1,
                                     [this, self, msg]() {
                                       Message fwd = msg;
                                       fwd.sender = self;
                                       network_.Send(std::move(fwd));
                                     });
      }
    }
    return;
  }

  if (const auto* abort = PayloadAs<QueryAbortPayload>(msg.payload.get())) {
    FloodRecord& flood = FloodRecordOf(nodes_[self].floods, abort->query);
    if (flood.aborted) return;
    flood.aborted = true;
    if (self != kBaseStationId) {
      RemoveQuery(self, abort->query);
      // The abort follows the propagation's prune: only nodes that carried
      // the query into their subtree need to carry its termination.
      if (flood.relayed) {
        network_.sim().ScheduleAfter(SourceJitter(self) + 1,
                                     [this, self, msg]() {
                                       Message fwd = msg;
                                       fwd.sender = self;
                                       network_.Send(std::move(fwd));
                                     });
      }
    }
    return;
  }

  if (self == kBaseStationId) {
    BsAccept(msg);
    return;
  }

  if (const auto* row = PayloadAs<RowPayload>(msg.payload.get())) {
    ForwardRow(self, msg, *row);
    return;
  }

  if (const auto* agg = PayloadAs<AggPayload>(msg.payload.get())) {
    ActiveQuery* active = FindActive(nodes_[self], agg->query);
    if (active == nullptr ||
        std::binary_search(active->slots_done.begin(),
                           active->slots_done.end(), agg->epoch_time)) {
      // Our slot already passed (or we no longer run the query): forward the
      // partial unchanged so no data is lost.
      ForwardPartials(self, agg->query, agg->epoch_time, agg->partials);
      return;
    }
    if (BufferedPartials* buffered = FindBuffered(*active, agg->epoch_time)) {
      MergePartialVectors(buffered->partials, agg->partials);
    } else {
      active->buffered.push_back({agg->epoch_time, agg->partials});
    }
  }
}

TinyDbEngine::ActiveQuery* TinyDbEngine::FindActive(NodeState& state,
                                                    QueryId id) {
  const auto it = LowerBoundActive(state.active, id);
  return it != state.active.end() && it->query.id() == id ? &*it : nullptr;
}

TinyDbEngine::BufferedPartials* TinyDbEngine::FindBuffered(
    ActiveQuery& query, SimTime epoch) {
  for (BufferedPartials& buffered : query.buffered) {
    if (buffered.epoch == epoch) return &buffered;
  }
  return nullptr;
}

void TinyDbEngine::InstallQuery(NodeId self, const Query& query) {
  std::vector<ActiveQuery>& active = nodes_[self].active;
  const auto it = LowerBoundActive(active, query.id());
  if (it == active.end() || it->query.id() != query.id()) {
    active.emplace(it, query);
  }
  ScheduleNextEpoch(self, query.id());
}

void TinyDbEngine::RemoveQuery(NodeId self, QueryId id) {
  NodeState& state = nodes_[self];
  if (const ActiveQuery* active = FindActive(state, id)) {
    state.active.erase(state.active.begin() + (active - state.active.data()));
  }
}

void TinyDbEngine::ScheduleNextEpoch(NodeId self, QueryId id) {
  const ActiveQuery* active = FindActive(nodes_[self], id);
  if (active == nullptr) return;
  const SimTime t = AlignUp(network_.sim().Now() + 1, active->query.epoch());
  network_.sim().ScheduleAt(t, [this, self, id, t]() { OnEpoch(self, id, t); });
}

void TinyDbEngine::OnEpoch(NodeId self, QueryId id, SimTime epoch_time) {
  if (network_.IsFailed(self)) return;
  NodeState& state = nodes_[self];
  ActiveQuery* active = FindActive(state, id);
  if (active == nullptr) return;  // aborted in the meantime
  const Query& query = active->query;

  // Acquisitional sampling: each query samples on its own (the baseline
  // shares nothing, Section 1).  A node in a transient outage takes no
  // sample and contributes nothing of its own, but keeps its aggregation
  // slot and its epoch chain, so that children's partials reaching it
  // after it recovers are still forwarded.
  const bool down = network_.IsDown(self);
  const Reading sample =
      down ? Reading()
           : field_.SampleReading(self, network_.topology().PositionOf(self),
                                  query.AcquiredAttributes(), epoch_time);
  const bool matches = !down && query.predicates().Matches(sample);

  if (query.kind() == QueryKind::kAcquisition) {
    if (matches) {
      // Project the selected attributes into the result row.
      Reading row(self, epoch_time);
      for (Attribute attr : query.attributes()) {
        row.Set(attr, sample.GetOrThrow(attr));
      }
      auto payload =
          std::make_shared<RowPayload>(id, epoch_time, std::move(row));
      const std::size_t bytes =
          query.ResultPayloadBytes() + kResultEnvelopeBytes;
      network_.sim().ScheduleAfter(
          SourceJitter(self), [this, self, payload, bytes]() {
            if (FindActive(nodes_[self], payload->query) == nullptr) return;
            Message msg;
            msg.cls = MessageClass::kResult;
            msg.mode = AddressMode::kUnicast;
            msg.sender = self;
            msg.destinations = {tree_.ParentOf(self)};
            msg.payload_bytes = bytes;
            msg.payload = payload;
            network_.Send(std::move(msg));
          });
    }
  } else {
    if (matches) {
      std::vector<PartialAggregate> own;
      own.reserve(query.aggregates().size());
      for (const AggregateSpec& spec : query.aggregates()) {
        own.push_back(PartialAggregate::OfValue(
            spec, sample.GetOrThrow(spec.attribute)));
      }
      if (BufferedPartials* buffered = FindBuffered(*active, epoch_time)) {
        MergePartialVectors(buffered->partials, own);
      } else {
        active->buffered.push_back({epoch_time, std::move(own)});
      }
    }
    // Stagger the merge-and-send slot bottom-up: deeper nodes send first.
    network_.sim().ScheduleAt(epoch_time + SlotOffset(network_.topology(),
                                                      self),
                              [this, self, id, epoch_time]() {
                                OnAggSlot(self, id, epoch_time);
                              });
  }

  // Prune stale per-epoch bookkeeping: this query's fired slots before
  // the horizon, one prefix of the ascending list.
  const SimTime horizon = epoch_time - 4 * query.epoch();
  std::vector<SimTime>& done = active->slots_done;
  done.erase(done.begin(), std::lower_bound(done.begin(), done.end(), horizon));

  ScheduleNextEpoch(self, id);
}

void TinyDbEngine::OnAggSlot(NodeId self, QueryId id, SimTime epoch_time) {
  if (network_.IsFailed(self)) return;
  // A query removed since its epoch began has no state left to mark.
  ActiveQuery* active = FindActive(nodes_[self], id);
  if (active == nullptr) return;
  std::vector<SimTime>& done = active->slots_done;
  const auto at = std::lower_bound(done.begin(), done.end(), epoch_time);
  if (at == done.end() || *at != epoch_time) done.insert(at, epoch_time);
  BufferedPartials* buffered = FindBuffered(*active, epoch_time);
  if (buffered == nullptr) return;  // nothing matched in the subtree
  std::vector<PartialAggregate> merged = std::move(buffered->partials);
  active->buffered.erase(active->buffered.begin() +
                         (buffered - active->buffered.data()));
  if (merged.empty() || merged.front().count() == 0) return;
  ForwardPartials(self, id, epoch_time, std::move(merged));
}

void TinyDbEngine::ForwardRow(NodeId self, const Message& received,
                              const RowPayload& row) {
  // Rows travel unchanged toward the base station; each query's rows are
  // separate messages (no cross-query packing in the baseline).
  Message msg;
  msg.cls = MessageClass::kResult;
  msg.mode = AddressMode::kUnicast;
  msg.sender = self;
  msg.destinations = {tree_.ParentOf(self)};
  const auto it = bs_queries_.find(row.query);
  msg.payload_bytes = (it != bs_queries_.end()
                           ? it->second.query.ResultPayloadBytes()
                           : std::size_t{8}) +
                      kResultEnvelopeBytes;
  msg.payload = received.payload;
  network_.Send(std::move(msg));
}

void TinyDbEngine::ForwardPartials(NodeId self, QueryId id,
                                   SimTime epoch_time,
                                   std::vector<PartialAggregate> partials) {
  Message msg;
  msg.cls = MessageClass::kResult;
  msg.mode = AddressMode::kUnicast;
  msg.sender = self;
  msg.destinations = {tree_.ParentOf(self)};
  msg.payload_bytes = AggPayloadBytes(partials);
  msg.payload =
      std::make_shared<AggPayload>(id, epoch_time, std::move(partials));
  network_.Send(std::move(msg));
}

// ---------------------------------------------------------------------
// Base-station-side logic
// ---------------------------------------------------------------------

void TinyDbEngine::BsAccept(const Message& msg) {
  if (const auto* row = PayloadAs<RowPayload>(msg.payload.get())) {
    auto it = bs_queries_.find(row->query);
    if (it == bs_queries_.end() || it->second.terminated) return;
    it->second.answers.AddRow(row->epoch_time, row->row);
    return;
  }
  if (const auto* agg = PayloadAs<AggPayload>(msg.payload.get())) {
    auto it = bs_queries_.find(agg->query);
    if (it == bs_queries_.end() || it->second.terminated) return;
    it->second.answers.AddPartials(agg->epoch_time, agg->partials);
  }
}

void TinyDbEngine::ScheduleEpochClose(QueryId id, SimTime epoch_time) {
  const auto it = bs_queries_.find(id);
  if (it == bs_queries_.end() || it->second.terminated) return;
  network_.sim().ScheduleAt(epoch_time + it->second.query.epoch(),
                            [this, id, epoch_time]() {
                              CloseEpoch(id, epoch_time);
                            });
}

void TinyDbEngine::CloseEpoch(QueryId id, SimTime epoch_time) {
  auto it = bs_queries_.find(id);
  if (it == bs_queries_.end() || it->second.terminated) return;
  BsQueryState& state = it->second;
  EpochResult result = state.answers.Close(state.query, epoch_time);
  if (sink_ != nullptr) sink_->OnResult(std::move(result));
  ScheduleEpochClose(id, epoch_time + state.query.epoch());
}

}  // namespace ttmqo
