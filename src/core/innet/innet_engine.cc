#include "core/innet/innet_engine.h"

#include <algorithm>

#include "util/check.h"
#include "util/mathx.h"

namespace ttmqo {
namespace {

// Ticks and slots older than this are pruned from per-node bookkeeping.
constexpr SimDuration kPruneHorizonMs = 32 * kMinEpochDurationMs;

// A payload that survives an ARQ give-up is re-routed through fresh
// parents at most this many times before the loss is accepted.
constexpr int kMaxReroutes = 2;

// A node stays in a query's expected-contributor set for this many epochs
// after its last row.  Longer horizons repair deeper outages but NACK more
// nodes whose readings merely drifted out of the predicate range.
constexpr int kRepairHistoryEpochs = 3;

// A sleeping node wakes this many ms before its next scheduled tick.
constexpr SimDuration kSleepGuardMs = 8;

// An overheard "neighbor has data for q" fact stays fresh for this many
// epochs of q.
constexpr int kHasDataTtlEpochs = 2;

// Liveness failover (arq profile): a parent candidate silent on the
// broadcast channel for longer than this is blacklisted and routed around.
// It exceeds the maintenance-beacon period to avoid false positives.
constexpr SimDuration kLivenessTimeoutMs = 8192;

// First blacklist duration, doubled on every repeated offence up to the
// cap: a recovered parent is re-tried within the cap at the latest.
constexpr SimDuration kBlacklistBaseBackoffMs = 4096;
constexpr SimDuration kBlacklistMaxBackoffMs = 32768;

// Dissemination re-floods (arq profile): each query is flooded again this
// many times, this far apart, so nodes that were unreachable during the
// initial flood still learn it.
constexpr int kDisseminationRetries = 2;
constexpr SimDuration kDisseminationRetryIntervalMs = 8192;

// Packs a (query, source) row key for the per-epoch duplicate buckets.
std::uint64_t RowKey(QueryId query, NodeId source) {
  static_assert(sizeof(QueryId) + sizeof(NodeId) <= sizeof(std::uint64_t));
  return (std::uint64_t{query} << std::numeric_limits<NodeId>::digits) |
         source;
}

// Small per-node key sets are ascending vectors: a lookup touches a few
// cache lines and an insert allocates only when the vector grows.
//
// Inserts `key` into the ascending `keys`; false when it was already there.
template <typename T>
bool InsertSorted(std::vector<T>& keys, T key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it != keys.end() && *it == key) return false;
  keys.insert(it, key);
  return true;
}

// Erases the entries of a tick-keyed container older than `horizon`.  The
// keys sort tick first, so they form one prefix: the cost is the number of
// entries erased, not the container's size.
template <typename Container>
void ErasePrefix(Container& container, SimTime horizon) {
  container.erase(container.begin(), container.lower_bound(horizon));
}

void ErasePrefix(std::vector<SimTime>& ticks, SimTime horizon) {
  ticks.erase(ticks.begin(),
              std::lower_bound(ticks.begin(), ticks.end(), horizon));
}

}  // namespace

void ApplyReliabilityProfile(ReliabilityProfile profile,
                             InNetOptions& options) {
  if (profile == ReliabilityProfile::kArq) options.arq.enabled = true;
}

InNetworkEngine::InNetworkEngine(Network& network, const FieldModel& field,
                                 ResultSink* sink, InNetOptions options)
    : network_(network),
      field_(field),
      sink_(sink),
      options_(options),
      tree_(network.topology(), network.link_quality()),
      srt_(network.topology(), tree_),
      levels_(network.topology()),
      nodes_(network.topology().size()) {
  if (options_.arq.enabled) {
    arq_.emplace(network_, options_.arq);
    arq_->SetQuarantineHook(
        [this](NodeId self, NodeId neighbor, SimTime until) {
          // The sink is exempt: routing away from the base station only
          // adds hops, and every detour lands on this same last link
          // anyway.  Quarantining it cascades into a rerouting storm.
          if (neighbor == kBaseStationId) return;
          // Feed the ARQ's flapping detection into the parent blacklist so
          // route selection avoids the neighbor for the same horizon.
          Suspicion& suspicion = nodes_[self].suspicion[neighbor];
          suspicion.blacklisted_until =
              std::max(suspicion.blacklisted_until, until);
          if (network_.tracing()) {
            network_.Emit(TraceEvent("tier2.quarantine")
                              .With("node", static_cast<std::int64_t>(self))
                              .With("neighbor",
                                    static_cast<std::int64_t>(neighbor))
                              .With("until", until));
          }
        });
    arq_->SetGiveUpHook([this](const ArqTransport::GiveUpInfo& info) {
      OnArqGiveUp(info);
    });
    for (NodeId node : network_.topology().AllNodes()) {
      arq_->Attach(node, [this, node](const Message& msg, bool addressed) {
        HandleMessage(node, msg, addressed);
      });
    }
  } else {
    for (NodeId node : network_.topology().AllNodes()) {
      network_.SetReceiver(node, [this, node](const Message& msg,
                                              bool addressed) {
        HandleMessage(node, msg, addressed);
      });
    }
  }
}

SimDuration InNetworkEngine::SlotOffset(NodeId node) const {
  return static_cast<SimDuration>(network_.topology().MaxDepth() -
                                  levels_.LevelOf(node)) *
             kAggSlotMs +
         SourceJitter(node);
}

// -----------------------------------------------------------------------
// Submission / termination (base station API)
// -----------------------------------------------------------------------

void InNetworkEngine::SubmitQuery(const Query& query) {
  CheckArg(!bs_queries_.contains(query.id()),
           "InNetworkEngine: duplicate query id");
  bs_queries_.emplace(query.id(), BsQueryState(query));
  nodes_[kBaseStationId].prop_round[query.id()] =
      std::numeric_limits<int>::max();
  if (network_.tracing()) {
    network_.Emit(TraceEvent("tier2.submit")
                      .With("query", static_cast<std::int64_t>(query.id()))
                      .With("epoch_ms",
                            static_cast<std::int64_t>(query.epoch()))
                      .With("active",
                            static_cast<std::int64_t>(bs_queries_.size())));
  }

  Message msg;
  msg.cls = MessageClass::kQueryPropagation;
  msg.mode = AddressMode::kBroadcast;
  msg.sender = kBaseStationId;
  msg.payload_bytes = PropagationPayloadBytes(query) + 1;  // piggyback bit
  msg.payload = std::make_shared<InNetPropagationPayload>(
      query, /*has_data=*/false);
  network_.Send(std::move(msg));

  // Dissemination retries (arq profile): re-flood with an advancing round
  // number so nodes that were unreachable during the initial flood
  // (transient outages) still learn the query; termination aborts the
  // retry chain.
  const int retries = arq_ ? kDisseminationRetries : 0;
  for (int round = 1; round <= retries; ++round) {
    network_.sim().ScheduleAfter(
        static_cast<SimDuration>(round) * kDisseminationRetryIntervalMs,
        [this, id = query.id(), round]() {
          const auto it = bs_queries_.find(id);
          if (it == bs_queries_.end() || it->second.terminated) return;
          if (network_.tracing()) {
            network_.Emit(TraceEvent("tier2.redisseminate")
                              .With("query", static_cast<std::int64_t>(id))
                              .With("round", static_cast<std::int64_t>(round)));
          }
          Message refresh;
          refresh.cls = MessageClass::kQueryPropagation;
          refresh.mode = AddressMode::kBroadcast;
          refresh.sender = kBaseStationId;
          refresh.payload_bytes =
              PropagationPayloadBytes(it->second.query) + 1;
          refresh.payload = std::make_shared<InNetPropagationPayload>(
              it->second.query, /*has_data=*/false, round);
          network_.Send(std::move(refresh));
        });
  }

  ScheduleEpochClose(query.id(),
                     AlignUp(network_.sim().Now() + 1, query.epoch()));
}

void InNetworkEngine::TerminateQuery(QueryId id) {
  auto it = bs_queries_.find(id);
  CheckArg(it != bs_queries_.end() && !it->second.terminated,
           "InNetworkEngine: terminating unknown or finished query");
  it->second.terminated = true;
  it->second.rows.clear();
  it->second.partials.clear();
  it->second.no_data.clear();
  it->second.last_contributed.clear();
  it->second.agg_counts.clear();
  nodes_[kBaseStationId].seen_abort.insert(id);
  if (network_.tracing()) {
    network_.Emit(TraceEvent("tier2.terminate")
                      .With("query", static_cast<std::int64_t>(id)));
  }

  Message msg;
  msg.cls = MessageClass::kQueryAbort;
  msg.mode = AddressMode::kBroadcast;
  msg.sender = kBaseStationId;
  msg.payload_bytes = kAbortPayloadBytes;
  msg.payload = std::make_shared<QueryAbortPayload>(id);
  network_.Send(std::move(msg));
}

// -----------------------------------------------------------------------
// Message handling
// -----------------------------------------------------------------------

void InNetworkEngine::HandleMessage(NodeId self, const Message& msg,
                                    bool addressed) {
  NodeState& state = nodes_[self];
  // Liveness: anything heard on the broadcast channel proves the sender is
  // alive (only tracked under the arq profile).
  if (arq_) NoteAlive(self, msg.sender);
  // Only upper-level neighbors are parent candidates, so only their traffic
  // teaches "has data" facts.
  const bool from_upper =
      levels_.LevelOf(msg.sender) + 1 == levels_.LevelOf(self);

  if (const auto* prop =
          PayloadAs<InNetPropagationPayload>(msg.payload.get())) {
    const QueryId id = prop->query.id();
    // Piggybacked data bit: learn it from every copy of the flood, even
    // duplicates, but only about upper-level neighbors.
    if (prop->sender_has_data && from_upper) {
      NoteHasData(self, msg.sender, std::span<const QueryId>(&id, 1),
                  network_.sim().Now());
    }
    // A terminated query must never be reinstalled by a late re-flood.
    if (state.seen_abort.contains(id)) return;
    // Round-based dedup: each node installs once and re-forwards once per
    // dissemination round.
    const auto round_it = state.prop_round.find(id);
    const bool first_time = round_it == state.prop_round.end();
    if (!first_time && round_it->second >= prop->round) return;
    state.prop_round[id] = prop->round;
    if (self == kBaseStationId) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    bool has_data = false;
    if (first_time && ShouldInstall(self, prop->query)) {
      InstallQuery(self, prop->query);
      // Evaluate the piggybacked "I have data" bit from the current field.
      const Reading sample = field_.SampleReading(
          self, network_.topology().PositionOf(self),
          prop->query.AcquiredAttributes(), network_.sim().Now());
      has_data = prop->query.predicates().Matches(sample);
    } else if (!first_time && state.active.contains(id)) {
      const Reading sample = field_.SampleReading(
          self, network_.topology().PositionOf(self),
          prop->query.AcquiredAttributes(), network_.sim().Now());
      has_data = prop->query.predicates().Matches(sample);
    }
    if (!ShouldForwardPropagation(self, prop->query)) return;
    state.relayed_propagation.insert(id);
    const Query query = prop->query;
    const int round = prop->round;
    network_.sim().ScheduleAfter(
        SourceJitter(self) + 1, [this, self, query, has_data, round]() {
          if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
          Message fwd;
          fwd.cls = MessageClass::kQueryPropagation;
          fwd.mode = AddressMode::kBroadcast;
          fwd.sender = self;
          fwd.payload_bytes = PropagationPayloadBytes(query) + 1;
          fwd.payload = std::make_shared<InNetPropagationPayload>(
              query, has_data, round);
          network_.Send(std::move(fwd));
        });
    return;
  }

  if (const auto* abort = PayloadAs<QueryAbortPayload>(msg.payload.get())) {
    if (state.seen_abort.contains(abort->query)) return;
    state.seen_abort.insert(abort->query);
    if (self == kBaseStationId) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    RemoveQuery(self, abort->query);
    // The abort follows the propagation's prune.
    if (!state.relayed_propagation.contains(abort->query)) return;
    state.relayed_propagation.erase(abort->query);
    const QueryId id = abort->query;
    network_.sim().ScheduleAfter(SourceJitter(self) + 1, [this, self, id]() {
      if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
      Message fwd;
      fwd.cls = MessageClass::kQueryAbort;
      fwd.mode = AddressMode::kBroadcast;
      fwd.sender = self;
      fwd.payload_bytes = kAbortPayloadBytes;
      fwd.payload = std::make_shared<QueryAbortPayload>(id);
      network_.Send(std::move(fwd));
    });
    return;
  }

  if (const auto* row = PayloadAs<SharedRowPayload>(msg.payload.get())) {
    // The broadcast channel teaches us who has data: a row batch heard
    // from a neighbor that contains the neighbor's own reading marks it.
    if (from_upper) {
      for (const RowEntry& entry : row->entries) {
        if (entry.row.node() == msg.sender) {
          NoteHasData(self, msg.sender, entry.queries, row->epoch_time);
        }
      }
    }
    if (!addressed) return;
    const auto it = row->dest_queries.find(self);
    if (it == row->dest_queries.end() || it->second.empty()) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    if (self == kBaseStationId) {
      BsAccept(msg);
      return;
    }
    // Keep only the (row, query) pairs this node is responsible for,
    // dropping (query, epoch, source) keys already relayed once.  While our
    // packing slot has not fired yet, the kept rows ride along with our own
    // reading in one message; otherwise they leave right away.
    const SimTime t = row->epoch_time;
    const bool ride_along = options_.shared_messages && SlotPending(state, t);
    std::vector<RowEntry> direct;
    std::vector<RowEntry>* mine = nullptr;
    std::vector<std::uint64_t>* seen = nullptr;
    std::vector<QueryId>& kept = scratch_.queries;
    for (const RowEntry& entry : row->entries) {
      kept.clear();
      for (QueryId q : entry.queries) {
        if (std::find(it->second.begin(), it->second.end(), q) ==
            it->second.end()) {
          continue;
        }
        if (seen == nullptr) seen = &state.seen_rows[t];
        if (!InsertSorted(*seen, RowKey(q, entry.row.node()))) {
          ++duplicates_suppressed_;
          continue;
        }
        kept.push_back(q);
      }
      if (kept.empty()) continue;
      if (mine == nullptr) mine = ride_along ? &state.row_buffer[t] : &direct;
      mine->push_back(
          RowEntry{entry.row, std::vector<QueryId>(kept.begin(), kept.end())});
    }
    if (mine == nullptr) return;
    state.last_relay = network_.sim().Now();
    if (!ride_along) SendRows(self, t, std::move(direct));
    return;
  }

  if (const auto* agg = PayloadAs<SharedAggPayload>(msg.payload.get())) {
    // Any carrier of partials for q is a good parent for q: forwarding to
    // it lets the aggregates merge one hop earlier.
    if (from_upper) {
      for (const auto& [dest, qs] : agg->dest_queries) {
        NoteHasData(self, msg.sender, qs, agg->epoch_time);
      }
    }
    if (!addressed) return;
    const auto it = agg->dest_queries.find(self);
    if (it == agg->dest_queries.end() || it->second.empty()) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    if (self == kBaseStationId) {
      BsAccept(msg);
      return;
    }
    state.last_relay = network_.sim().Now();
    const SimTime t = agg->epoch_time;
    std::map<QueryId, std::vector<PartialAggregate>> mine;
    for (QueryId q : it->second) {
      const auto part_it = agg->partials.find(q);
      Check(part_it != agg->partials.end(),
            "shared agg payload lacks partials for an addressed query");
      mine.emplace(q, part_it->second);
    }
    if (SlotPending(state, t)) {
      // Our own shared slot for this tick has not fired: merge and ride
      // along (the in-network aggregation saving).
      auto& buffer = state.agg_buffer[t];
      for (auto& [q, partials] : mine) {
        auto [buf_it, inserted] = buffer.try_emplace(q, partials);
        if (!inserted) MergePartialVectors(buf_it->second, partials);
      }
    } else {
      SendAgg(self, t, std::move(mine));
    }
    return;
  }

  if (const auto* req = PayloadAs<RepairRequestPayload>(msg.payload.get())) {
    if (!addressed || self == kBaseStationId) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    HandleRepairRequest(self, *req);
    return;
  }

  if (const auto* reply = PayloadAs<RepairReplyPayload>(msg.payload.get())) {
    if (!addressed) return;
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
    HandleRepairReply(self, msg, *reply);
    return;
  }
}

// -----------------------------------------------------------------------
// Query install / remove and the shared tick
// -----------------------------------------------------------------------

bool InNetworkEngine::ShouldInstall(NodeId self, const Query& query) const {
  if (!options_.use_semantic_routing) return true;
  // Value-based predicates cannot exclude a node in advance; constraints
  // on the constant attributes (nodeid, position) can.
  return NodeMayMatch(self, network_.topology().PositionOf(self),
                      query.predicates());
}

bool InNetworkEngine::ShouldForwardPropagation(NodeId self,
                                               const Query& query) const {
  if (!options_.use_semantic_routing) return true;
  return srt_.ShouldForward(tree_, self, query.predicates());
}

void InNetworkEngine::InstallQuery(NodeId self, const Query& query) {
  nodes_[self].active.emplace(query.id(), query);
  ScheduleTick(self);
}

void InNetworkEngine::RemoveQuery(NodeId self, QueryId id) {
  NodeState& state = nodes_[self];
  state.active.erase(id);
  for (auto& [t, per_query] : state.agg_buffer) per_query.erase(id);
  ScheduleTick(self);
}

void InNetworkEngine::ScheduleTick(NodeId self) {
  NodeState& state = nodes_[self];
  if (state.active.empty()) {
    state.tick_scheduled_for = -1;
    return;
  }
  const SimTime now = network_.sim().Now();
  SimTime next = std::numeric_limits<SimTime>::max();
  for (const auto& [id, query] : state.active) {
    next = std::min(next, AlignUp(now + 1, query.epoch()));
  }
  if (state.tick_scheduled_for == next) return;
  state.tick_scheduled_for = next;
  network_.sim().ScheduleAt(next,
                            [this, self, next]() { OnTick(self, next); });
}

void InNetworkEngine::OnTick(NodeId self, SimTime t) {
  NodeState& state = nodes_[self];
  if (network_.IsFailed(self)) return;  // crashed: the tick chain ends
  if (state.tick_scheduled_for != t) return;  // stale event
  if (network_.IsDown(self)) {
    // Transient outage: skip this tick but keep the chain alive so the
    // node resumes sampling as soon as it recovers.
    ScheduleTick(self);
    return;
  }
  if (network_.IsAsleep(self)) network_.SetAsleep(self, false);

  // Sharing over time: all queries firing at t use one sample acquisition.
  std::vector<const Query*> triggered;
  std::vector<Attribute> attrs;
  for (const auto& [id, query] : state.active) {
    if (t % query.epoch() != 0) continue;
    triggered.push_back(&query);
    const auto acquired = query.AcquiredAttributes();
    attrs.insert(attrs.end(), acquired.begin(), acquired.end());
  }
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());

  bool any_match = false;
  if (!triggered.empty()) {
    const Reading sample = field_.SampleReading(
        self, network_.topology().PositionOf(self), attrs, t);

    std::vector<QueryId> matched_acq;
    std::vector<Attribute> row_attrs;
    for (const Query* query : triggered) {
      const bool match = query->predicates().Matches(sample);
      if (query->kind() == QueryKind::kAggregation) {
        if (match) {
          any_match = true;
          std::vector<PartialAggregate> own;
          own.reserve(query->aggregates().size());
          for (const AggregateSpec& spec : query->aggregates()) {
            own.push_back(PartialAggregate::OfValue(
                spec, sample.GetOrThrow(spec.attribute)));
          }
          auto& buffer = state.agg_buffer[t];
          auto [it, inserted] = buffer.try_emplace(query->id(), std::move(own));
          if (!inserted) MergePartialVectors(it->second, own);
        }
      } else if (match) {
        any_match = true;
        matched_acq.push_back(query->id());
        row_attrs.insert(row_attrs.end(), query->attributes().begin(),
                         query->attributes().end());
      }
    }

    // One shared transmission slot per tick, staggered bottom-up so that
    // children's rows and partials arrive before parents transmit and ride
    // along in the parents' packed messages.
    if (InsertSorted(state.slot_scheduled, t)) {
      network_.sim().ScheduleAt(t + SlotOffset(self),
                                [this, self, t]() { OnSlot(self, t); });
    }

    if (!matched_acq.empty()) {
      std::sort(row_attrs.begin(), row_attrs.end());
      row_attrs.erase(std::unique(row_attrs.begin(), row_attrs.end()),
                      row_attrs.end());
      RowEntry own;
      own.row = Reading(self, t);
      for (Attribute attr : row_attrs) {
        own.row.Set(attr, sample.GetOrThrow(attr));
      }
      own.queries = matched_acq;
      // Cache the matched reading so a gap-repair request for this tick
      // can be answered from memory after the original send was lost.
      if (arq_) state.own_rows[t] = own;
      if (options_.shared_messages) {
        state.row_buffer[t].push_back(std::move(own));
      } else {
        // Ablation: no packing — one immediate message per query.
        network_.sim().ScheduleAfter(
            SourceJitter(self), [this, self, t, own]() {
              if (nodes_[self].active.empty()) return;
              if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
              for (QueryId q : own.queries) {
                RowEntry single;
                single.row = own.row;
                single.queries = {q};
                SendRows(self, t, {std::move(single)});
              }
            });
      }
    }
  }
  state.matched_last_tick = any_match;

  // Prune stale per-tick bookkeeping: ticks before the horizon, as one
  // range per container.
  const SimTime horizon = t - kPruneHorizonMs;
  ErasePrefix(state.slot_scheduled, horizon);
  ErasePrefix(state.slot_done, horizon);
  ErasePrefix(state.agg_buffer, horizon);
  ErasePrefix(state.row_buffer, horizon);
  ErasePrefix(state.seen_rows, horizon);
  ErasePrefix(state.own_rows, horizon);

  ScheduleTick(self);

  // Decide about sleeping once this tick's forwarding duties are over.
  if (options_.enable_sleep) {
    const SimDuration idle_check =
        SlotOffset(self) + kAggSlotMs + kSourceJitterMs;
    network_.sim().ScheduleAt(t + idle_check,
                              [this, self, t]() { MaybeSleep(self, t); });
  }
}

bool InNetworkEngine::SlotPending(const NodeState& state, SimTime t) {
  return std::binary_search(state.slot_scheduled.begin(),
                            state.slot_scheduled.end(), t) &&
         !std::binary_search(state.slot_done.begin(), state.slot_done.end(),
                             t);
}

void InNetworkEngine::OnSlot(NodeId self, SimTime t) {
  NodeState& state = nodes_[self];
  if (network_.IsDown(self)) return;  // crashed or in an outage
  if (!InsertSorted(state.slot_done, t)) return;

  // Packed rows (own reading plus everything relayed before the slot).
  const auto row_it = state.row_buffer.find(t);
  if (row_it != state.row_buffer.end()) {
    std::vector<RowEntry> rows = std::move(row_it->second);
    state.row_buffer.erase(row_it);
    if (!rows.empty()) {
      if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
      SendRows(self, t, std::move(rows));
    }
  }

  // Merged partial aggregates.
  const auto it = state.agg_buffer.find(t);
  if (it == state.agg_buffer.end()) return;
  std::map<QueryId, std::vector<PartialAggregate>> partials =
      std::move(it->second);
  state.agg_buffer.erase(it);
  std::erase_if(partials, [](const auto& entry) {
    return entry.second.empty() || entry.second.front().count() == 0;
  });
  if (partials.empty()) return;
  if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
  if (options_.shared_messages) {
    SendAgg(self, t, std::move(partials));
  } else {
    for (auto& [q, p] : partials) {
      std::map<QueryId, std::vector<PartialAggregate>> single;
      single.emplace(q, std::move(p));
      SendAgg(self, t, std::move(single));
    }
  }
}

// -----------------------------------------------------------------------
// Route selection and transmission
// -----------------------------------------------------------------------

std::span<const NodeId> InNetworkEngine::UsableParents(NodeId self) {
  if (!options_.query_aware_routing) return {};
  // Beacon-based failure detection plus liveness: dead neighbors are never
  // candidates, and neighbors silent past the liveness timeout are
  // blacklisted with bounded backoff.  When every upper-level neighbor is
  // suspect, fall back to the merely-not-failed set; when all are dead the
  // node is cut off — fall back to the full list (the messages will be
  // lost, which is the truth).
  const std::vector<NodeId>& all = levels_.UpperNeighbors(self);
  std::vector<NodeId>& upper = scratch_.upper;
  upper.clear();
  for (NodeId candidate : all) {
    if (!network_.IsFailed(candidate) && !SuspectParent(self, candidate) &&
        !(arq_ && candidate != kBaseStationId &&
          arq_->IsQuarantined(self, candidate))) {
      upper.push_back(candidate);
    }
  }
  if (upper.empty()) {
    for (NodeId candidate : all) {
      if (!network_.IsFailed(candidate)) upper.push_back(candidate);
    }
  }
  if (upper.empty()) upper.assign(all.begin(), all.end());
  Check(!upper.empty(), "every non-root node has an upper-level neighbor");
  return upper;
}

void InNetworkEngine::ChooseParents(NodeId self, std::span<const NodeId> upper,
                                    std::span<const QueryId> queries,
                                    DestQueries& out) {
  out.clear();
  if (!options_.query_aware_routing) {
    out.emplace(tree_.ParentOf(self),
                std::vector<QueryId>(queries.begin(), queries.end()));
    return;
  }
  const NodeState& state = nodes_[self];
  const SimTime now = network_.sim().Now();

  // Whether `known` (one neighbor's has-data facts) is fresh for q.
  auto is_fresh = [&](const std::map<QueryId, SimTime>& known, QueryId q) {
    const auto q_it = known.find(q);
    if (q_it == known.end()) return false;
    const auto active_it = state.active.find(q);
    if (active_it == state.active.end()) return false;
    const SimDuration ttl = kHasDataTtlEpochs * active_it->second.epoch();
    return q_it->second + ttl >= now;
  };

  std::vector<QueryId>& remaining = scratch_.remaining;
  std::vector<QueryId>& covered = scratch_.covered;
  std::vector<QueryId>& best_covered = scratch_.best_covered;
  remaining.assign(queries.begin(), queries.end());
  while (!remaining.empty()) {
    NodeId best = upper.front();
    best_covered.clear();
    double best_quality = -1.0;
    for (NodeId candidate : upper) {
      covered.clear();
      const auto nb_it = state.has_data.find(candidate);
      if (nb_it != state.has_data.end()) {
        for (QueryId q : remaining) {
          if (is_fresh(nb_it->second, q)) covered.push_back(q);
        }
      }
      const double quality = network_.link_quality().Quality(self, candidate);
      if (covered.size() > best_covered.size() ||
          (covered.size() == best_covered.size() &&
           quality > best_quality)) {
        best = candidate;
        std::swap(best_covered, covered);
        best_quality = quality;
      }
    }
    if (best_covered.empty()) {
      // Nobody advertises data for the rest: give it to the most stable
      // link (this degenerates to TinyDB's choice on a cold start).
      auto& bucket = out[best];
      bucket.insert(bucket.end(), remaining.begin(), remaining.end());
      break;
    }
    auto& bucket = out[best];
    bucket.insert(bucket.end(), best_covered.begin(), best_covered.end());
    std::erase_if(remaining, [&](QueryId q) {
      return std::find(best_covered.begin(), best_covered.end(), q) !=
             best_covered.end();
    });
  }
  for (auto& [parent, qs] : out) std::sort(qs.begin(), qs.end());
}

void InNetworkEngine::SendRows(NodeId self, SimTime t,
                               std::vector<RowEntry> entries) {
  // Rows whose queries route to the same next-hop split pack into one
  // transmission; distinct splits become distinct messages.  A split
  // depends only on the query set, and at one instant the candidates do
  // not change, so they are filtered once and each distinct query set is
  // split once.
  if (entries.empty()) return;
  const std::span<const NodeId> upper = UsableParents(self);
  std::map<DestQueries, std::vector<RowEntry>> groups;
  std::vector<std::size_t>& reps = scratch_.set_reps;
  std::vector<std::vector<RowEntry>*>& group_of = scratch_.row_group;
  reps.clear();
  group_of.clear();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::vector<RowEntry>* group = nullptr;
    for (std::size_t rep : reps) {
      if (entries[rep].queries == entries[i].queries) {
        group = group_of[rep];
        break;
      }
    }
    if (group == nullptr) {
      ChooseParents(self, upper, entries[i].queries, scratch_.split);
      group = &groups[scratch_.split];
      reps.push_back(i);
    }
    group_of.push_back(group);
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    group_of[i]->push_back(std::move(entries[i]));
  }
  while (!groups.empty()) {
    auto group = groups.extract(groups.begin());
    auto payload = std::make_shared<SharedRowPayload>();
    payload->epoch_time = t;
    payload->entries = std::move(group.mapped());
    payload->dest_queries = std::move(group.key());

    Message msg;
    msg.cls = MessageClass::kResult;
    msg.mode = payload->dest_queries.size() == 1 ? AddressMode::kUnicast
                                                 : AddressMode::kMulticast;
    msg.sender = self;
    for (const auto& [dest, qs] : payload->dest_queries) {
      msg.destinations.push_back(dest);
    }
    msg.payload_bytes = SharedRowBytes(*payload);
    const SimTime deadline = ResultDeadline(self, t, payload->dest_queries);
    msg.payload = std::move(payload);
    ReliableSend(std::move(msg), deadline);
  }
}

void InNetworkEngine::SendAgg(
    NodeId self, SimTime t,
    std::map<QueryId, std::vector<PartialAggregate>> partials) {
  std::vector<QueryId>& queries = scratch_.queries;
  queries.clear();
  for (const auto& [q, p] : partials) queries.push_back(q);

  auto payload = std::make_shared<SharedAggPayload>();
  payload->epoch_time = t;
  payload->partials = std::move(partials);
  ChooseParents(self, UsableParents(self), queries, payload->dest_queries);

  Message msg;
  msg.cls = MessageClass::kResult;
  msg.mode = payload->dest_queries.size() == 1 ? AddressMode::kUnicast
                                               : AddressMode::kMulticast;
  msg.sender = self;
  for (const auto& [dest, qs] : payload->dest_queries) {
    msg.destinations.push_back(dest);
  }
  msg.payload_bytes = SharedAggBytes(*payload);
  const SimTime deadline = ResultDeadline(self, t, payload->dest_queries);
  msg.payload = std::move(payload);
  ReliableSend(std::move(msg), deadline);
}

// -----------------------------------------------------------------------
// Reliability: ARQ routing, give-up re-routes, gap repair
// -----------------------------------------------------------------------

void InNetworkEngine::ReliableSend(Message msg, SimTime deadline) {
  if (arq_) {
    arq_->Send(std::move(msg), deadline, current_reroute_);
  } else {
    network_.Send(std::move(msg));
  }
}

SimTime InNetworkEngine::ResultDeadline(NodeId self, SimTime t,
                                        const DestQueries& dest_queries) const {
  // A result for tick t is useful until the earliest epoch close among the
  // queries it serves.  Relays may carry queries they never installed
  // (SRT-pruned); fall back to the shortest possible epoch for those.
  const NodeState& state = nodes_[self];
  SimDuration min_epoch = std::numeric_limits<SimDuration>::max();
  bool any = false;
  for (const auto& [dest, queries] : dest_queries) {
    for (QueryId q : queries) {
      const auto it = state.active.find(q);
      if (it == state.active.end()) continue;
      min_epoch = std::min(min_epoch, it->second.epoch());
      any = true;
    }
  }
  if (!any) min_epoch = kMinEpochDurationMs;
  return t + min_epoch;
}

void InNetworkEngine::OnArqGiveUp(const ArqTransport::GiveUpInfo& info) {
  if (info.reroutes >= kMaxReroutes) return;
  if (network_.sim().Now() >= info.deadline) return;
  if (network_.IsFailed(info.sender) || network_.IsDown(info.sender)) return;
  if (network_.tracing()) {
    network_.Emit(TraceEvent("tier2.arq_reroute")
                      .With("node", static_cast<std::int64_t>(info.sender))
                      .With("attempt",
                            static_cast<std::int64_t>(info.reroutes + 1)));
  }
  current_reroute_ = info.reroutes + 1;
  if (const auto* row = PayloadAs<SharedRowPayload>(info.inner.get())) {
    // Keep only the (row, query) pairs whose destination never acked; the
    // quarantine the give-up produced steers ChooseParents elsewhere.
    std::set<QueryId> lost;
    for (NodeId dest : info.unacked) {
      const auto it = row->dest_queries.find(dest);
      if (it == row->dest_queries.end()) continue;
      lost.insert(it->second.begin(), it->second.end());
    }
    std::vector<RowEntry> entries;
    for (const RowEntry& entry : row->entries) {
      RowEntry kept;
      kept.row = entry.row;
      for (QueryId q : entry.queries) {
        if (lost.contains(q)) kept.queries.push_back(q);
      }
      if (!kept.queries.empty()) entries.push_back(std::move(kept));
    }
    if (!entries.empty()) {
      SendRows(info.sender, row->epoch_time, std::move(entries));
    }
  } else if (const auto* agg = PayloadAs<SharedAggPayload>(info.inner.get())) {
    std::set<QueryId> lost;
    for (NodeId dest : info.unacked) {
      const auto it = agg->dest_queries.find(dest);
      if (it == agg->dest_queries.end()) continue;
      lost.insert(it->second.begin(), it->second.end());
    }
    std::map<QueryId, std::vector<PartialAggregate>> partials;
    for (const auto& [q, p] : agg->partials) {
      if (lost.contains(q)) partials.emplace(q, p);
    }
    if (!partials.empty()) {
      SendAgg(info.sender, agg->epoch_time, std::move(partials));
    }
  } else if (PayloadAs<RepairReplyPayload>(info.inner.get()) !=
             nullptr) {
    // The quarantined hop is now avoided by ControlParent; try another.
    ForwardRepairReply(
        info.sender,
        std::static_pointer_cast<const RepairReplyPayload>(info.inner));
  }
  // Repair *requests* are not re-routed: the fixed tree is the only path
  // that reaches a child's subtree, so an unreachable child simply stays
  // unaccounted this epoch — which is what coverage reports.
  current_reroute_ = 0;
}

NodeId InNetworkEngine::NextHopDown(NodeId from, NodeId target) const {
  NodeId hop = target;
  while (hop != kBaseStationId && tree_.ParentOf(hop) != from) {
    hop = tree_.ParentOf(hop);
  }
  return hop;  // kBaseStationId when target is not below `from`
}

NodeId InNetworkEngine::ControlParent(NodeId self) {
  // Control traffic climbs the fixed tree unless the tree parent is dead
  // or quarantined; then the least-suspect upper-level neighbor takes over.
  const NodeId tree_parent = tree_.ParentOf(self);
  auto usable = [&](NodeId candidate) {
    return !network_.IsFailed(candidate) && !SuspectParent(self, candidate) &&
           !(arq_ && candidate != kBaseStationId &&
             arq_->IsQuarantined(self, candidate));
  };
  if (usable(tree_parent)) return tree_parent;
  NodeId best = tree_parent;
  double best_quality = -1.0;
  for (NodeId candidate : levels_.UpperNeighbors(self)) {
    if (!usable(candidate)) continue;
    const double quality = network_.link_quality().Quality(self, candidate);
    if (quality > best_quality) {
      best = candidate;
      best_quality = quality;
    }
  }
  return best;
}

void InNetworkEngine::RepairCheck(QueryId id, SimTime epoch_time) {
  const auto it = bs_queries_.find(id);
  if (it == bs_queries_.end() || it->second.terminated || !arq_) return;
  const BsQueryState& state = it->second;
  if (epoch_time <= state.closed_through) return;
  const auto rows_it = state.rows.find(epoch_time);
  const auto nd_it = state.no_data.find(epoch_time);
  // Missing = recent contributors that are silent this epoch.  The learned
  // expectation keeps the NACK fan-out proportional to actual losses; a
  // node whose reading drifted out of the predicate range answers one
  // "no data" and ages out of the set after kRepairHistoryEpochs.
  const SimTime horizon =
      epoch_time - kRepairHistoryEpochs * state.query.epoch();
  std::vector<NodeId> missing;
  for (const auto& [node, last] : state.last_contributed) {
    if (last < horizon) continue;
    if (network_.IsFailed(node)) continue;
    if (rows_it != state.rows.end() && rows_it->second.contains(node)) {
      continue;
    }
    if (nd_it != state.no_data.end() && nd_it->second.contains(node)) {
      continue;
    }
    missing.push_back(node);
  }
  if (missing.empty()) return;
  if (network_.tracing()) {
    network_.Emit(TraceEvent("tier2.repair_check")
                      .With("query", static_cast<std::int64_t>(id))
                      .With("epoch_t", epoch_time)
                      .With("missing",
                            static_cast<std::int64_t>(missing.size())));
  }
  // NACK down the fixed tree, one request per first-hop subtree.
  std::map<NodeId, std::vector<NodeId>> by_child;
  for (NodeId node : missing) {
    const NodeId child = NextHopDown(kBaseStationId, node);
    if (child == kBaseStationId) continue;
    by_child[child].push_back(node);
  }
  const SimTime deadline = epoch_time + state.query.epoch();
  for (auto& [child, targets] : by_child) {
    if (network_.IsFailed(child)) continue;
    SendRepairRequest(kBaseStationId, child, id, epoch_time, deadline,
                      std::move(targets));
  }
}

void InNetworkEngine::SendRepairRequest(NodeId from, NodeId to, QueryId id,
                                        SimTime epoch_time, SimTime deadline,
                                        std::vector<NodeId> targets) {
  ++repair_requests_;
  auto payload = std::make_shared<RepairRequestPayload>();
  payload->query = id;
  payload->epoch_time = epoch_time;
  payload->deadline = deadline;
  payload->targets = std::move(targets);

  Message msg;
  msg.cls = MessageClass::kControl;
  msg.mode = AddressMode::kUnicast;
  msg.sender = from;
  msg.destinations.push_back(to);
  msg.payload_bytes = RepairRequestBytes(*payload);
  msg.payload = std::move(payload);
  if (network_.IsAsleep(from)) network_.SetAsleep(from, false);
  ReliableSend(std::move(msg), deadline);
}

void InNetworkEngine::HandleRepairRequest(NodeId self,
                                          const RepairRequestPayload& req) {
  if (network_.sim().Now() >= req.deadline) return;  // epoch already closed
  std::vector<NodeId> rest;
  bool mine = false;
  for (NodeId target : req.targets) {
    if (target == self) {
      mine = true;
    } else {
      rest.push_back(target);
    }
  }
  if (mine) SendRepairReply(self, req.query, req.epoch_time, req.deadline);
  if (rest.empty()) return;
  // Pass the remaining targets further down, grouped by own tree child.
  std::map<NodeId, std::vector<NodeId>> by_child;
  for (NodeId target : rest) {
    const NodeId child = NextHopDown(self, target);
    if (child == kBaseStationId) continue;  // not below us: mis-routed, drop
    by_child[child].push_back(target);
  }
  for (auto& [child, targets] : by_child) {
    if (network_.IsFailed(child)) continue;
    SendRepairRequest(self, child, req.query, req.epoch_time, req.deadline,
                      std::move(targets));
  }
}

void InNetworkEngine::SendRepairReply(NodeId self, QueryId id,
                                      SimTime epoch_time, SimTime deadline) {
  const NodeState& state = nodes_[self];
  auto payload = std::make_shared<RepairReplyPayload>();
  payload->query = id;
  payload->epoch_time = epoch_time;
  payload->deadline = deadline;
  payload->node = self;
  // "No data" is only meaningful when the node actually knew the query at
  // some point; a node that missed the dissemination cannot vouch for the
  // epoch and stays uncovered.
  payload->knows_query = state.active.contains(id) ||
                         state.seen_abort.contains(id) ||
                         state.prop_round.contains(id);
  const auto row_it = state.own_rows.find(epoch_time);
  if (row_it != state.own_rows.end() &&
      std::find(row_it->second.queries.begin(), row_it->second.queries.end(),
                id) != row_it->second.queries.end()) {
    payload->has_row = true;
    payload->row = row_it->second.row;
  }
  ForwardRepairReply(self, std::move(payload));
}

void InNetworkEngine::ForwardRepairReply(
    NodeId self, std::shared_ptr<const RepairReplyPayload> reply) {
  if (network_.sim().Now() >= reply->deadline) return;
  Message msg;
  msg.cls = MessageClass::kControl;
  msg.mode = AddressMode::kUnicast;
  msg.sender = self;
  msg.destinations.push_back(ControlParent(self));
  msg.payload_bytes = RepairReplyBytes(*reply);
  const SimTime deadline = reply->deadline;
  msg.payload = std::move(reply);
  if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
  ReliableSend(std::move(msg), deadline);
}

void InNetworkEngine::HandleRepairReply(NodeId self, const Message& msg,
                                        const RepairReplyPayload& reply) {
  if (self != kBaseStationId) {
    // Relay one hop further up; reuse the payload we already hold.
    ForwardRepairReply(
        self, std::static_pointer_cast<const RepairReplyPayload>(msg.payload));
    return;
  }
  auto it = bs_queries_.find(reply.query);
  if (it == bs_queries_.end() || it->second.terminated) return;
  BsQueryState& state = it->second;
  if (reply.epoch_time <= state.closed_through) {
    ++late_drops_;
    return;
  }
  ++repair_replies_;
  if (reply.has_row) {
    if (!state.rows[reply.epoch_time]
             .try_emplace(reply.node, reply.row)
             .second) {
      ++duplicates_suppressed_;
    }
    SimTime& last = state.last_contributed[reply.node];
    last = std::max(last, reply.epoch_time);
  } else if (reply.knows_query) {
    state.no_data[reply.epoch_time].insert(reply.node);
  }
}

void InNetworkEngine::NoteAlive(NodeId self, NodeId sender) {
  NodeState& state = nodes_[self];
  SimTime& last = state.last_heard[sender];
  last = std::max(last, network_.sim().Now());
  state.suspicion.erase(sender);  // fresh traffic resets the backoff
}

bool InNetworkEngine::SuspectParent(NodeId self, NodeId candidate) {
  // Liveness and the ARQ quarantine hook, the two sources of blacklist
  // entries, both run under the arq profile only.
  if (!arq_) return false;
  NodeState& state = nodes_[self];
  const SimTime now = network_.sim().Now();
  const auto susp_it = state.suspicion.find(candidate);
  if (susp_it != state.suspicion.end() &&
      now < susp_it->second.blacklisted_until) {
    return true;
  }
  const auto heard_it = state.last_heard.find(candidate);
  const SimTime last = heard_it != state.last_heard.end() ? heard_it->second
                                                          : 0;
  if (now - last <= kLivenessTimeoutMs) return false;
  // Silent past the timeout: blacklist with a doubling, bounded backoff.
  Suspicion& suspicion = state.suspicion[candidate];
  suspicion.backoff =
      suspicion.backoff == 0
          ? kBlacklistBaseBackoffMs
          : std::min(suspicion.backoff * 2, kBlacklistMaxBackoffMs);
  suspicion.blacklisted_until = now + suspicion.backoff;
  // Optimistic probe: pretend the candidate was heard at expiry so it gets
  // one fresh chance before the next (doubled) blacklist — bounded
  // re-selection after recovery.
  SimTime& heard = state.last_heard[candidate];
  heard = std::max(heard, suspicion.blacklisted_until);
  if (network_.tracing()) {
    network_.Emit(TraceEvent("tier2.parent_blacklist")
                      .With("node", static_cast<std::int64_t>(self))
                      .With("parent", static_cast<std::int64_t>(candidate))
                      .With("until", suspicion.blacklisted_until));
  }
  return true;
}

void InNetworkEngine::NoteHasData(NodeId self, NodeId sender,
                                  std::span<const QueryId> queries,
                                  SimTime when) {
  auto& per_neighbor = nodes_[self].has_data[sender];
  for (QueryId q : queries) {
    SimTime& last = per_neighbor[q];
    last = std::max(last, when);
  }
}

void InNetworkEngine::MaybeSleep(NodeId self, SimTime t) {
  NodeState& state = nodes_[self];
  if (state.matched_last_tick) return;
  if (state.last_relay >= t) return;  // relayed during this tick
  if (state.tick_scheduled_for <= network_.sim().Now()) return;
  const SimTime wake_at = state.tick_scheduled_for - kSleepGuardMs;
  if (wake_at <= network_.sim().Now()) return;
  network_.SetAsleep(self, true);
  network_.sim().ScheduleAt(wake_at, [this, self]() {
    if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
  });
}

// -----------------------------------------------------------------------
// Base-station side
// -----------------------------------------------------------------------

void InNetworkEngine::BsAccept(const Message& msg) {
  if (const auto* row = PayloadAs<SharedRowPayload>(msg.payload.get())) {
    const auto it = row->dest_queries.find(kBaseStationId);
    if (it == row->dest_queries.end()) return;
    for (const RowEntry& entry : row->entries) {
      for (QueryId q : entry.queries) {
        if (std::find(it->second.begin(), it->second.end(), q) ==
            it->second.end()) {
          continue;  // another destination is responsible for this query
        }
        auto bs_it = bs_queries_.find(q);
        if (bs_it == bs_queries_.end() || bs_it->second.terminated) continue;
        // Epochs at or before the watermark are closed: the answer left
        // the station already, so the row is dropped instead of leaking
        // into the per-epoch map forever.
        if (row->epoch_time <= bs_it->second.closed_through) {
          ++late_drops_;
          continue;
        }
        // At most one row per (query, epoch, source): duplicate deliveries
        // (e.g. a relay re-sending after an ambiguous loss) are dropped.
        if (!bs_it->second.rows[row->epoch_time]
                 .try_emplace(entry.row.node(), entry.row)
                 .second) {
          ++duplicates_suppressed_;
        }
        if (arq_) {
          SimTime& last =
              bs_it->second.last_contributed[entry.row.node()];
          last = std::max(last, row->epoch_time);
        }
      }
    }
    return;
  }
  if (const auto* agg = PayloadAs<SharedAggPayload>(msg.payload.get())) {
    const auto it = agg->dest_queries.find(kBaseStationId);
    if (it == agg->dest_queries.end()) return;
    for (QueryId q : it->second) {
      auto bs_it = bs_queries_.find(q);
      if (bs_it == bs_queries_.end() || bs_it->second.terminated) continue;
      if (agg->epoch_time <= bs_it->second.closed_through) {
        ++late_drops_;
        continue;
      }
      const auto part_it = agg->partials.find(q);
      if (part_it == agg->partials.end()) continue;
      auto& buffer = bs_it->second.partials[agg->epoch_time];
      if (buffer.empty()) {
        buffer = part_it->second;
      } else {
        MergePartialVectors(buffer, part_it->second);
      }
    }
  }
}

void InNetworkEngine::ScheduleEpochClose(QueryId id, SimTime epoch_time) {
  const auto it = bs_queries_.find(id);
  if (it == bs_queries_.end() || it->second.terminated) return;
  network_.sim().ScheduleAt(
      epoch_time + it->second.query.epoch(),
      [this, id, epoch_time]() { CloseEpoch(id, epoch_time); });
  // Gap repair (arq profile, acquisition only): halfway through the epoch
  // the regular deliveries are in; NACK whoever is still unaccounted while
  // there is time for a repair round trip before the close.  Aggregation
  // queries get no repair — re-injecting a partial into the in-network
  // merge could double-count — only coverage annotation.
  if (arq_ && it->second.query.kind() == QueryKind::kAcquisition) {
    network_.sim().ScheduleAt(
        epoch_time + it->second.query.epoch() / 2,
        [this, id, epoch_time]() { RepairCheck(id, epoch_time); });
  }
}

void InNetworkEngine::CloseEpoch(QueryId id, SimTime epoch_time) {
  auto it = bs_queries_.find(id);
  if (it == bs_queries_.end() || it->second.terminated) return;
  BsQueryState& state = it->second;

  EpochResult result;
  result.query = id;
  result.epoch_time = epoch_time;
  result.kind = state.query.kind();
  int contributing = 0;
  if (state.query.kind() == QueryKind::kAcquisition) {
    auto rows_it = state.rows.find(epoch_time);
    if (rows_it != state.rows.end()) {
      // Shared rows carry the union projection; narrow to this query's
      // attribute list so the answer matches the baseline's exactly.  The
      // per-epoch map is keyed by source node, so rows come out already
      // deduplicated and in node order.
      for (const auto& [node, row] : rows_it->second) {
        Reading projected(row.node(), row.time());
        for (Attribute attr : state.query.attributes()) {
          projected.Set(attr, row.GetOrThrow(attr));
        }
        result.rows.push_back(std::move(projected));
      }
    }
    contributing = static_cast<int>(result.rows.size());
  } else {
    std::vector<PartialAggregate> merged;
    auto agg_it = state.partials.find(epoch_time);
    if (agg_it != state.partials.end()) merged = std::move(agg_it->second);
    if (!merged.empty()) contributing = static_cast<int>(merged.front().count());
    for (std::size_t i = 0; i < state.query.aggregates().size(); ++i) {
      const AggregateSpec& spec = state.query.aggregates()[i];
      if (i < merged.size()) {
        result.aggregates.emplace_back(spec, merged[i].Finalize());
      } else {
        result.aggregates.emplace_back(spec,
                                       PartialAggregate(spec).Finalize());
      }
    }
  }
  if (arq_) {
    // Coverage: how much of the *learned* expected contributor set is
    // accounted for — by data or by a repair-affirmed "no data".  The
    // expectation is the recent-contributor history (the SRT install set
    // overestimates wildly under selective predicates), so the very first
    // epoch reports full coverage and losses show up from the second on.
    const SimTime horizon =
        epoch_time - kRepairHistoryEpochs * state.query.epoch();
    result.contributing_nodes = contributing;
    if (state.query.kind() == QueryKind::kAcquisition) {
      int expected_alive = 0;
      for (const auto& [node, last] : state.last_contributed) {
        if (last >= horizon && !network_.IsFailed(node)) ++expected_alive;
      }
      int accounted = contributing;
      const auto nd_it = state.no_data.find(epoch_time);
      if (nd_it != state.no_data.end()) {
        accounted += static_cast<int>(nd_it->second.size());
      }
      result.coverage =
          expected_alive == 0
              ? 1.0
              : std::min(1.0, static_cast<double>(accounted) /
                                  static_cast<double>(expected_alive));
      // Age out nodes whose last row fell off the horizon so the ledger
      // tracks the active contributor set, not all-time history.
      std::erase_if(state.last_contributed,
                    [horizon](const auto& e) { return e.second < horizon; });
    } else {
      // Aggregation has no per-node rows; the expectation is the largest
      // recent contributor count (aggregates get no gap repair — merging
      // a repaired partial could double-count — only the annotation).
      std::int64_t expected = contributing;
      for (const auto& [t, count] : state.agg_counts) {
        if (t >= horizon) expected = std::max(expected, count);
      }
      result.coverage =
          expected == 0
              ? 1.0
              : std::min(1.0, static_cast<double>(contributing) /
                                  static_cast<double>(expected));
      state.agg_counts[epoch_time] = contributing;
      state.agg_counts.erase(state.agg_counts.begin(),
                             state.agg_counts.lower_bound(horizon));
    }
  }
  // Advance the watermark and drop everything at or before it: closed
  // epochs can never reach the user again, so the per-epoch ledgers stay
  // bounded even when stragglers keep trickling in.
  state.closed_through = std::max(state.closed_through, epoch_time);
  state.rows.erase(state.rows.begin(), state.rows.upper_bound(epoch_time));
  state.partials.erase(state.partials.begin(),
                       state.partials.upper_bound(epoch_time));
  state.no_data.erase(state.no_data.begin(),
                      state.no_data.upper_bound(epoch_time));
  if (network_.tracing()) {
    network_.Emit(TraceEvent("tier2.epoch_close")
                      .With("query", static_cast<std::int64_t>(id))
                      .With("epoch_t", epoch_time)
                      .With("rows",
                            static_cast<std::int64_t>(result.rows.size()))
                      .With("aggregates", static_cast<std::int64_t>(
                                              result.aggregates.size())));
  }
  if (sink_ != nullptr) sink_->OnResult(result);
  ScheduleEpochClose(id, epoch_time + state.query.epoch());
}

}  // namespace ttmqo
