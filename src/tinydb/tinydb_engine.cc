#include "tinydb/tinydb_engine.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/mathx.h"

namespace ttmqo {
namespace {

// Extra bytes a result payload carries besides the values: query id (2) and
// an epoch tag (2).
constexpr std::size_t kResultEnvelopeBytes = 4;

}  // namespace

std::size_t AggPayloadBytes(const std::vector<PartialAggregate>& partials) {
  std::size_t bytes = kResultEnvelopeBytes;
  for (const PartialAggregate& p : partials) bytes += p.SerializedSizeBytes();
  return bytes;
}

void MergePartialVectors(std::vector<PartialAggregate>& into,
                         const std::vector<PartialAggregate>& from) {
  Check(into.size() == from.size(),
        "partial aggregate vectors must align by spec");
  for (std::size_t i = 0; i < into.size(); ++i) into[i].Merge(from[i]);
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
    network_.SetReceiver(node, [this, node](const Message& msg,
                                            bool addressed) {
      HandleMessage(node, msg, addressed);
    });
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
  nodes_[kBaseStationId].seen_propagation.insert(query.id());

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
  nodes_[kBaseStationId].seen_abort.insert(id);

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

void TinyDbEngine::HandleMessage(NodeId self, const Message& msg,
                                 bool addressed) {
  if (!addressed) return;  // the baseline never exploits overhearing

  if (const auto* prop =
          PayloadAs<QueryPropagationPayload>(msg.payload.get())) {
    NodeState& state = nodes_[self];
    if (state.seen_propagation.contains(prop->query.id())) return;
    state.seen_propagation.insert(prop->query.id());
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
        state.relayed_propagation.insert(prop->query.id());
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
    NodeState& state = nodes_[self];
    if (state.seen_abort.contains(abort->query)) return;
    state.seen_abort.insert(abort->query);
    if (self != kBaseStationId) {
      RemoveQuery(self, abort->query);
      // The abort follows the propagation's prune: only nodes that carried
      // the query into their subtree need to carry its termination.
      if (state.relayed_propagation.contains(abort->query)) {
        state.relayed_propagation.erase(abort->query);
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
    ForwardRow(self, *row);
    return;
  }

  if (const auto* agg = PayloadAs<AggPayload>(msg.payload.get())) {
    NodeState& state = nodes_[self];
    const auto key = std::make_pair(agg->query, agg->epoch_time);
    if (state.agg_slot_done.contains(key) || !state.active.contains(agg->query)) {
      // Our slot already passed (or we no longer run the query): forward the
      // partial unchanged so no data is lost.
      ForwardPartials(self, agg->query, agg->epoch_time, agg->partials);
      return;
    }
    auto [it, inserted] = state.agg_buffer.try_emplace(key, agg->partials);
    if (!inserted) MergePartialVectors(it->second, agg->partials);
  }
}

void TinyDbEngine::InstallQuery(NodeId self, const Query& query) {
  NodeState& state = nodes_[self];
  state.active.emplace(query.id(), query);
  ScheduleNextEpoch(self, query.id());
}

void TinyDbEngine::RemoveQuery(NodeId self, QueryId id) {
  NodeState& state = nodes_[self];
  state.active.erase(id);
  const QueryEpoch first{id, std::numeric_limits<SimTime>::min()};
  const QueryEpoch last{id, std::numeric_limits<SimTime>::max()};
  state.agg_buffer.erase(state.agg_buffer.lower_bound(first),
                         state.agg_buffer.upper_bound(last));
  state.agg_slot_done.erase(state.agg_slot_done.lower_bound(first),
                            state.agg_slot_done.upper_bound(last));
}

void TinyDbEngine::ScheduleNextEpoch(NodeId self, QueryId id) {
  const auto it = nodes_[self].active.find(id);
  if (it == nodes_[self].active.end()) return;
  const SimTime t = AlignUp(network_.sim().Now() + 1, it->second.epoch());
  network_.sim().ScheduleAt(t, [this, self, id, t]() { OnEpoch(self, id, t); });
}

void TinyDbEngine::OnEpoch(NodeId self, QueryId id, SimTime epoch_time) {
  if (network_.IsFailed(self)) return;
  NodeState& state = nodes_[self];
  const auto it = state.active.find(id);
  if (it == state.active.end()) return;  // aborted in the meantime
  const Query& query = it->second;

  // Acquisitional sampling: each query samples on its own (the baseline
  // shares nothing, Section 1).
  const Reading sample = field_.SampleReading(
      self, network_.topology().PositionOf(self), query.AcquiredAttributes(),
      epoch_time);
  const bool matches = query.predicates().Matches(sample);

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
            if (!nodes_[self].active.contains(payload->query)) return;
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
      const auto key = std::make_pair(id, epoch_time);
      auto [buf, inserted] = state.agg_buffer.try_emplace(key, std::move(own));
      if (!inserted) MergePartialVectors(buf->second, own);
    }
    // Stagger the merge-and-send slot bottom-up: deeper nodes send first.
    network_.sim().ScheduleAt(epoch_time + SlotOffset(network_.topology(),
                                                      self),
                              [this, self, id, epoch_time]() {
                                OnAggSlot(self, id, epoch_time);
                              });
  }

  // Prune stale per-epoch bookkeeping: this query's epochs before the
  // horizon, one range of the query-first keys.
  const SimTime horizon = epoch_time - 4 * query.epoch();
  state.agg_slot_done.erase(
      state.agg_slot_done.lower_bound(
          {id, std::numeric_limits<SimTime>::min()}),
      state.agg_slot_done.lower_bound({id, horizon}));

  ScheduleNextEpoch(self, id);
}

void TinyDbEngine::OnAggSlot(NodeId self, QueryId id, SimTime epoch_time) {
  if (network_.IsFailed(self)) return;
  NodeState& state = nodes_[self];
  const auto key = std::make_pair(id, epoch_time);
  state.agg_slot_done.insert(key);
  const auto it = state.agg_buffer.find(key);
  if (it == state.agg_buffer.end()) return;  // nothing matched in the subtree
  std::vector<PartialAggregate> merged = std::move(it->second);
  state.agg_buffer.erase(it);
  if (merged.empty() || merged.front().count() == 0) return;
  ForwardPartials(self, id, epoch_time, std::move(merged));
}

void TinyDbEngine::ForwardRow(NodeId self, const RowPayload& payload) {
  // Rows travel unchanged toward the base station; each query's rows are
  // separate messages (no cross-query packing in the baseline).
  Message msg;
  msg.cls = MessageClass::kResult;
  msg.mode = AddressMode::kUnicast;
  msg.sender = self;
  msg.destinations = {tree_.ParentOf(self)};
  const auto it = bs_queries_.find(payload.query);
  msg.payload_bytes = (it != bs_queries_.end()
                           ? it->second.query.ResultPayloadBytes()
                           : std::size_t{8}) +
                      kResultEnvelopeBytes;
  msg.payload = std::make_shared<RowPayload>(payload);
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
  const EpochResult result = state.answers.Close(state.query, epoch_time);
  if (sink_ != nullptr) sink_->OnResult(result);
  ScheduleEpochClose(id, epoch_time + state.query.epoch());
}

}  // namespace ttmqo
