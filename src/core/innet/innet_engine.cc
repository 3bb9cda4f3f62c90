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

// A has-data slot for a neighbor that was never heard to have data.
constexpr SimTime kNoFact = std::numeric_limits<SimTime>::min();

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

// The first entry of an ascending-by-id list of query entries whose id is
// not below `id`.
template <typename Entries>
auto LowerBoundById(Entries& entries, QueryId id) {
  return std::lower_bound(
      entries.begin(), entries.end(), id,
      [](const auto* entry, QueryId key) { return entry->query.id() < key; });
}

// Index of `key` in the ascending `keys`, or keys.size() when absent.
std::size_t IndexOf(const std::vector<QueryId>& keys, QueryId key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  return it != keys.end() && *it == key
             ? static_cast<std::size_t>(it - keys.begin())
             : keys.size();
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
  it->second.answers.Clear();
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
      NoteHasData(self, UpperPosition(self, msg.sender),
                  std::span<const QueryId>(&id, 1), network_.sim().Now());
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
    // SRT: value-based predicates cannot exclude a node in advance;
    // constraints on the constant attributes (nodeid, position) can, both
    // for the node itself and for its subtree.
    const PredicateSet& predicates = prop->query.predicates();
    const QueryEntry* installed = nullptr;
    if (first_time && NodeMayMatch(self, network_.topology().PositionOf(self),
                                   predicates)) {
      installed = &InstallQuery(self, prop->query);
    } else if (!first_time) {
      installed = FindActive(state, id);
    }
    // Evaluate the piggybacked "I have data" bit from the current field.
    bool has_data = false;
    if (installed != nullptr) {
      const Reading sample = field_.SampleReading(
          self, network_.topology().PositionOf(self), installed->acquired,
          network_.sim().Now());
      has_data = predicates.Matches(sample);
    }
    if (!srt_.ShouldForward(tree_, self, predicates)) return;
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
    if (from_upper && row->own_row != SharedRowPayload::kNoOwnRow) {
      NoteHasData(self, UpperPosition(self, msg.sender),
                  row->entries[row->own_row].queries, row->epoch_time);
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
      const std::size_t position = UpperPosition(self, msg.sender);
      for (const auto& [dest, qs] : agg->dest_queries) {
        NoteHasData(self, position, qs, agg->epoch_time);
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

const InNetworkEngine::QueryEntry& InNetworkEngine::InstallQuery(
    NodeId self, const Query& query) {
  std::vector<QueryEntry*>& active = nodes_[self].active;
  const auto it = LowerBoundById(active, query.id());
  Check(it == active.end() || (*it)->query.id() != query.id(),
        "a node installs each query once");
  QueryEntry& entry = queries_.try_emplace(query.id(), query).first->second;
  ++entry.installs;
  active.insert(it, &entry);
  ScheduleTick(self);
  return entry;
}

void InNetworkEngine::RemoveQuery(NodeId self, QueryId id) {
  NodeState& state = nodes_[self];
  const auto it = LowerBoundById(state.active, id);
  if (it != state.active.end() && (*it)->query.id() == id) {
    const bool last_install = --(*it)->installs == 0;
    state.active.erase(it);
    if (last_install) queries_.erase(id);
  }
  // Facts about an aborted query are never read again.
  const std::size_t row = IndexOf(state.fact_queries, id);
  if (row < state.fact_queries.size()) {
    const std::size_t width = levels_.UpperNeighbors(self).size();
    const auto first = state.fact_ticks.begin() +
                       static_cast<std::ptrdiff_t>(row * width);
    state.fact_ticks.erase(first, first + static_cast<std::ptrdiff_t>(width));
    state.fact_queries.erase(state.fact_queries.begin() +
                             static_cast<std::ptrdiff_t>(row));
  }
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
  for (const QueryEntry* entry : state.active) {
    next = std::min(next, AlignUp(now + 1, entry->query.epoch()));
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
  std::vector<const QueryEntry*>& triggered = scratch_.triggered;
  std::vector<Attribute>& attrs = scratch_.attrs;
  triggered.clear();
  attrs.clear();
  for (const QueryEntry* entry : state.active) {
    if (t % entry->query.epoch() != 0) continue;
    triggered.push_back(entry);
    attrs.insert(attrs.end(), entry->acquired.begin(), entry->acquired.end());
  }
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());

  bool any_match = false;
  if (!triggered.empty()) {
    const Reading sample = field_.SampleReading(
        self, network_.topology().PositionOf(self), attrs, t);

    std::vector<QueryId>& matched_acq = scratch_.matched;
    std::vector<Attribute>& row_attrs = scratch_.row_attrs;
    matched_acq.clear();
    row_attrs.clear();
    for (const QueryEntry* entry : triggered) {
      const Query* query = &entry->query;
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
      network_.sim().ScheduleAt(t + SlotOffset(network_.topology(), self),
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
        SlotOffset(network_.topology(), self) + kAggSlotMs + kSourceJitterMs;
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

const InNetworkEngine::QueryEntry* InNetworkEngine::FindActive(
    const NodeState& state, QueryId id) {
  const auto it = LowerBoundById(state.active, id);
  return it != state.active.end() && (*it)->query.id() == id ? *it : nullptr;
}

std::size_t InNetworkEngine::UpperPosition(NodeId self,
                                           NodeId neighbor) const {
  const std::vector<NodeId>& upper = levels_.UpperNeighbors(self);
  const auto it = std::lower_bound(upper.begin(), upper.end(), neighbor);
  Check(it != upper.end() && *it == neighbor,
        "has-data facts come from upper-level neighbors only");
  return static_cast<std::size_t>(it - upper.begin());
}

std::span<const double> InNetworkEngine::UpperQualities(NodeId self) {
  std::vector<double>& quality = nodes_[self].upper_quality;
  const std::vector<NodeId>& upper = levels_.UpperNeighbors(self);
  if (quality.size() != upper.size()) {
    quality.clear();
    for (NodeId candidate : upper) {
      quality.push_back(network_.link_quality().Quality(self, candidate));
    }
  }
  return quality;
}

std::span<const std::size_t> InNetworkEngine::UsableParents(NodeId self) {
  if (!options_.query_aware_routing) return {};
  // Beacon-based failure detection plus liveness: dead neighbors are never
  // candidates, and neighbors silent past the liveness timeout are
  // blacklisted with bounded backoff.  When every upper-level neighbor is
  // suspect, fall back to the merely-not-failed set; when all are dead the
  // node is cut off — fall back to the full list (the messages will be
  // lost, which is the truth).
  const std::vector<NodeId>& all = levels_.UpperNeighbors(self);
  std::vector<std::size_t>& upper = scratch_.upper;
  upper.clear();
  for (std::size_t p = 0; p < all.size(); ++p) {
    const NodeId candidate = all[p];
    if (!network_.IsFailed(candidate) && !SuspectParent(self, candidate) &&
        !(arq_ && candidate != kBaseStationId &&
          arq_->IsQuarantined(self, candidate))) {
      upper.push_back(p);
    }
  }
  if (upper.empty()) {
    for (std::size_t p = 0; p < all.size(); ++p) {
      if (!network_.IsFailed(all[p])) upper.push_back(p);
    }
  }
  if (upper.empty()) {
    for (std::size_t p = 0; p < all.size(); ++p) upper.push_back(p);
  }
  Check(!upper.empty(), "every non-root node has an upper-level neighbor");
  return upper;
}

void InNetworkEngine::ChooseParents(NodeId self,
                                    std::span<const std::size_t> upper,
                                    std::span<const QueryId> queries,
                                    DestQueries& out) {
  out.clear();
  if (!options_.query_aware_routing) {
    out.emplace(tree_.ParentOf(self),
                std::vector<QueryId>(queries.begin(), queries.end()));
    return;
  }
  const std::span<const double> quality = UpperQualities(self);
  const NodeState& state = nodes_[self];
  const std::vector<NodeId>& neighbors = levels_.UpperNeighbors(self);
  const SimTime now = network_.sim().Now();

  // A neighbor's fact about q counts while it is at most kHasDataTtlEpochs
  // of q's epochs old, and only for queries installed here.
  std::vector<Scratch::Pending>& remaining = scratch_.remaining;
  remaining.clear();
  for (QueryId q : queries) {
    Scratch::Pending pending{q, nullptr, 0};
    const QueryEntry* entry = FindActive(state, q);
    const std::size_t row = IndexOf(state.fact_queries, q);
    if (entry != nullptr && row < state.fact_queries.size()) {
      pending.facts = &state.fact_ticks[row * neighbors.size()];
      pending.fresh_since = now - kHasDataTtlEpochs * entry->query.epoch();
    }
    remaining.push_back(pending);
  }

  std::vector<QueryId>& covered = scratch_.covered;
  std::vector<QueryId>& best_covered = scratch_.best_covered;
  while (!remaining.empty()) {
    std::size_t best = upper.front();
    best_covered.clear();
    double best_quality = -1.0;
    for (std::size_t candidate : upper) {
      covered.clear();
      for (const Scratch::Pending& pending : remaining) {
        if (pending.facts != nullptr &&
            pending.facts[candidate] >= pending.fresh_since) {
          covered.push_back(pending.id);
        }
      }
      if (covered.size() > best_covered.size() ||
          (covered.size() == best_covered.size() &&
           quality[candidate] > best_quality)) {
        best = candidate;
        std::swap(best_covered, covered);
        best_quality = quality[candidate];
      }
    }
    auto& bucket = out[neighbors[best]];
    if (best_covered.empty()) {
      // Nobody advertises data for the rest: give it to the most stable
      // link (this degenerates to TinyDB's choice on a cold start).
      for (const Scratch::Pending& pending : remaining) {
        bucket.push_back(pending.id);
      }
      break;
    }
    bucket.insert(bucket.end(), best_covered.begin(), best_covered.end());
    // `best_covered` lists its queries in `remaining` order.
    std::size_t next = 0;
    std::erase_if(remaining, [&](const Scratch::Pending& pending) {
      if (next == best_covered.size() || best_covered[next] != pending.id) {
        return false;
      }
      ++next;
      return true;
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
  // split once.  Query lists are ascending, so distinct lists give
  // distinct splits.
  if (entries.empty()) return;
  const std::span<const std::size_t> upper = UsableParents(self);
  std::vector<Scratch::RowGroup>& groups = scratch_.row_groups;
  groups.clear();
  for (RowEntry& entry : entries) {
    auto group = std::find_if(
        groups.begin(), groups.end(), [&](const Scratch::RowGroup& g) {
          return g.rows.front().queries == entry.queries;
        });
    if (group == groups.end()) {
      group = groups.emplace(groups.end());
      ChooseParents(self, upper, entry.queries, group->dests);
    }
    group->rows.push_back(std::move(entry));
  }
  // Ascending by split: the goldens and traces pin this send order.
  std::sort(groups.begin(), groups.end(),
            [](const Scratch::RowGroup& a, const Scratch::RowGroup& b) {
              return a.dests < b.dests;
            });
  for (Scratch::RowGroup& group : groups) {
    auto payload = std::make_shared<SharedRowPayload>();
    payload->epoch_time = t;
    payload->entries = std::move(group.rows);
    payload->dest_queries = std::move(group.dests);
    const auto own = std::find_if(
        payload->entries.begin(), payload->entries.end(),
        [self](const RowEntry& entry) { return entry.row.node() == self; });
    if (own != payload->entries.end()) {
      payload->own_row =
          static_cast<std::size_t>(own - payload->entries.begin());
    }

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
      const QueryEntry* entry = FindActive(state, q);
      if (entry == nullptr) continue;
      min_epoch = std::min(min_epoch, entry->query.epoch());
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
  const std::vector<NodeId>& candidates = levels_.UpperNeighbors(self);
  const std::span<const double> quality = UpperQualities(self);
  NodeId best = tree_parent;
  double best_quality = -1.0;
  for (std::size_t p = 0; p < candidates.size(); ++p) {
    if (!usable(candidates[p])) continue;
    if (quality[p] > best_quality) {
      best = candidates[p];
      best_quality = quality[p];
    }
  }
  return best;
}

void InNetworkEngine::RepairCheck(QueryId id, SimTime epoch_time) {
  const auto it = bs_queries_.find(id);
  if (it == bs_queries_.end() || it->second.terminated || !arq_) return;
  const BsQueryState& state = it->second;
  if (state.answers.IsClosed(epoch_time)) return;
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
    if (state.answers.HasRow(epoch_time, node)) continue;
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
  payload->knows_query = FindActive(state, id) != nullptr ||
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
  if (state.answers.IsClosed(reply.epoch_time)) {
    ++late_drops_;
    return;
  }
  ++repair_replies_;
  if (reply.has_row) {
    if (state.answers.AddRow(reply.epoch_time, reply.row) ==
        EpochBuffer::Arrival::kDuplicate) {
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

void InNetworkEngine::NoteHasData(NodeId self, std::size_t position,
                                  std::span<const QueryId> queries,
                                  SimTime when) {
  NodeState& state = nodes_[self];
  std::vector<QueryId>& known = state.fact_queries;
  const std::size_t width = levels_.UpperNeighbors(self).size();
  for (QueryId q : queries) {
    const auto it = std::lower_bound(known.begin(), known.end(), q);
    const auto first = static_cast<std::size_t>(it - known.begin()) * width;
    if (it == known.end() || *it != q) {
      if (state.seen_abort.contains(q)) continue;
      known.insert(it, q);
      state.fact_ticks.insert(
          state.fact_ticks.begin() + static_cast<std::ptrdiff_t>(first), width,
          kNoFact);
    }
    SimTime& last = state.fact_ticks[first + position];
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
        // At most one row per (query, epoch, source): duplicate deliveries
        // (e.g. a relay re-sending after an ambiguous loss) are dropped, and
        // so is a row whose epoch's answer already left the station.
        switch (bs_it->second.answers.AddRow(row->epoch_time, entry.row)) {
          case EpochBuffer::Arrival::kLate:
            ++late_drops_;
            continue;
          case EpochBuffer::Arrival::kDuplicate:
            ++duplicates_suppressed_;
            break;
          case EpochBuffer::Arrival::kStored:
            break;
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
      if (bs_it->second.answers.IsClosed(agg->epoch_time)) {
        ++late_drops_;
        continue;
      }
      const auto part_it = agg->partials.find(q);
      if (part_it == agg->partials.end()) continue;
      bs_it->second.answers.AddPartials(agg->epoch_time, part_it->second);
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

  // Count contributors before the close finalizes the partials.
  const int contributing = state.answers.Contributors(epoch_time);
  EpochResult result = state.answers.Close(state.query, epoch_time);
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
  // Closed epochs can never reach the user again: drop their "no data"
  // affirmations with them, so the ledger stays bounded.
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
