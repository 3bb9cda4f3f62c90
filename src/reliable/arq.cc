#include "reliable/arq.h"

#include <algorithm>

#include "util/check.h"

namespace ttmqo {

SimDuration ArqRto(const ArqOptions& options, int backoff_exponent,
                   Rng& rng) {
  CheckArg(backoff_exponent >= 0, "ArqRto: negative backoff exponent");
  SimDuration rto = options.base_rto_ms;
  for (int i = 0; i < backoff_exponent && rto < options.max_rto_ms; ++i) {
    rto *= 2;
  }
  rto = std::min(rto, options.max_rto_ms);
  if (options.jitter_ms > 0) {
    rto += rng.UniformInt(0, options.jitter_ms);
  }
  return rto;
}

Rng ArqJitterRng(std::uint64_t seed, NodeId sender, std::uint32_t seq) {
  return Rng(seed).Fork((static_cast<std::uint64_t>(sender) << 32) |
                        static_cast<std::uint64_t>(seq));
}

ArqTransport::ArqTransport(Network& network, ArqOptions options)
    : network_(network),
      options_(options),
      upper_(network.topology().size()),
      next_seq_(network.topology().size(), 0),
      live_(network.topology().size()),
      seen_(network.topology().size()),
      quarantine_(network.topology().size()) {
  CheckArg(options_.base_rto_ms > 0 && options_.max_rto_ms >= options_.base_rto_ms,
           "ArqTransport: bad RTO bounds");
  CheckArg(options_.max_attempts >= 1, "ArqTransport: need >= 1 attempt");
}

void ArqTransport::Attach(NodeId node, Network::Receiver upper) {
  upper_[node] = std::move(upper);
  network_.SetReceiver(node, [this, node](const Message& msg,
                                          bool addressed) {
    OnReceive(node, msg, addressed);
  });
}

void ArqTransport::Send(Message msg, SimTime deadline, int reroutes) {
  CheckArg(msg.mode != AddressMode::kBroadcast,
           "ArqTransport::Send: broadcasts are fire-and-forget");
  const NodeId sender = msg.sender;
  const std::uint32_t seq = next_seq_[sender]++;

  const std::uint32_t index = AcquireSlot();
  PendingSlot& slot = slots_[index];
  slot.seq = seq;
  slot.deadline = deadline;
  slot.attempt = 1;
  slot.reroutes = reroutes;
  slot.rng = ArqJitterRng(options_.seed, sender, seq);
  slot.unacked = msg.destinations;
  slot.msg = std::move(msg);
  slot.msg.payload = std::make_shared<ArqDataPayload>(
      seq, std::move(slot.msg.payload));
  slot.msg.payload_bytes += kArqHeaderBytes;
  live_[sender].emplace(seq, index);
  ++sends_;

  // Give-up re-routes and repair traffic fire from timers, when the
  // sender may have dozed off between epochs; the radio insists on an
  // awake sender for every transmission.
  if (network_.IsAsleep(sender)) network_.SetAsleep(sender, false);
  network_.Send(slot.msg);
  ScheduleTimeout(index);
}

void ArqTransport::ScheduleTimeout(std::uint32_t index) {
  PendingSlot& slot = slots_[index];
  const SimDuration rto = ArqRto(options_, slot.attempt - 1, slot.rng);
  const auto fire = [this, index, generation = slot.generation]() {
    OnTimeout(index, generation);
  };
  static_assert(Simulator::EventFn::kFitsInline<decltype(fire)>,
                "ARQ retry timers must stay in the pooled inline slab");
  network_.sim().ScheduleAfter(rto, fire);
}

void ArqTransport::OnTimeout(std::uint32_t index, std::uint32_t generation) {
  PendingSlot& slot = slots_[index];
  if (!slot.in_use || slot.generation != generation) return;  // acked/stale
  const SimTime now = network_.sim().Now();
  const NodeId sender = slot.msg.sender;

  if (slot.attempt >= options_.max_attempts || now >= slot.deadline) {
    // Budget spent: strike every silent destination, hand the original
    // payload to the engine (it may re-route), and recycle the slot.
    ++give_ups_;
    for (NodeId dest : slot.unacked) Strike(sender, dest);
    if (give_up_) {
      const auto* data =
          static_cast<const ArqDataPayload*>(slot.msg.payload.get());
      GiveUpInfo info;
      info.cls = slot.msg.cls;
      info.sender = sender;
      info.inner = data->inner;
      info.inner_bytes = slot.msg.payload_bytes - kArqHeaderBytes;
      info.unacked = std::move(slot.unacked);
      info.deadline = slot.deadline;
      info.reroutes = slot.reroutes;
      ReleaseSlot(index);
      give_up_(info);
      return;
    }
    ReleaseSlot(index);
    return;
  }

  // Retransmit to the silent subset only.
  ++retransmits_;
  ++slot.attempt;
  Message retry = slot.msg;
  retry.destinations = slot.unacked;
  retry.mode = retry.destinations.size() == 1 ? AddressMode::kUnicast
                                              : AddressMode::kMulticast;
  if (network_.IsAsleep(sender)) network_.SetAsleep(sender, false);
  network_.Send(std::move(retry));
  ScheduleTimeout(index);
}

void ArqTransport::OnReceive(NodeId self, const Message& msg,
                             bool addressed) {
  if (const auto* data = PayloadAs<ArqDataPayload>(msg.payload.get())) {
    // Reconstruct the application-level message so the engine sees exactly
    // what it would without the transport (overhearing included).
    Message inner;
    inner.cls = msg.cls;
    inner.mode = msg.mode;
    inner.sender = msg.sender;
    inner.destinations = msg.destinations;
    inner.payload_bytes = msg.payload_bytes - kArqHeaderBytes;
    inner.payload = data->inner;
    if (!addressed) {
      if (upper_[self]) upper_[self](inner, false);
      return;
    }
    // Ack every addressed copy — re-acking duplicates is what resolves the
    // ack-was-lost ambiguity on the sender side.
    SendAck(self, msg.sender, data->seq);
    SeenWindow& window = seen_[self][msg.sender];
    const bool below_window =
        window.max_seen > options_.dedup_window &&
        data->seq < window.max_seen - options_.dedup_window;
    if (below_window || !window.seqs.insert(data->seq).second) {
      ++duplicates_dropped_;
      return;
    }
    if (data->seq > window.max_seen) {
      window.max_seen = data->seq;
      // Slide the window: sequence numbers too old to be live duplicates
      // are forgotten, bounding the table for long-lived runs.
      if (window.max_seen > options_.dedup_window) {
        const std::uint32_t floor = window.max_seen - options_.dedup_window;
        window.seqs.erase(window.seqs.begin(),
                          window.seqs.lower_bound(floor));
      }
    }
    if (upper_[self]) upper_[self](inner, true);
    return;
  }

  if (const auto* ack = PayloadAs<ArqAckPayload>(msg.payload.get())) {
    if (addressed) {
      auto& live = live_[self];
      const auto it = live.find(ack->seq);
      if (it != live.end()) {
        PendingSlot& slot = slots_[it->second];
        std::erase(slot.unacked, msg.sender);
        ClearStrikes(self, msg.sender);
        if (slot.unacked.empty()) ReleaseSlot(it->second);
      }
    }
    // Fall through to the engine: an overheard ack is still proof of life
    // for its sender (the engine's liveness tracking sees every message).
    if (upper_[self]) upper_[self](msg, addressed);
    return;
  }

  if (upper_[self]) upper_[self](msg, addressed);
}

void ArqTransport::SendAck(NodeId self, NodeId to, std::uint32_t seq) {
  if (network_.IsAsleep(self)) network_.SetAsleep(self, false);
  // Recycle a pool entry whose previous network copy has been released;
  // mutating it is safe once this transport holds the only reference.
  std::shared_ptr<ArqAckPayload> payload;
  for (auto& pooled : ack_pool_) {
    if (pooled.use_count() == 1) {
      pooled->seq = seq;
      payload = pooled;
      break;
    }
  }
  if (payload == nullptr) {
    payload = std::make_shared<ArqAckPayload>(seq);
    if (ack_pool_.size() < 64) ack_pool_.push_back(payload);
  }
  Message ack;
  ack.cls = MessageClass::kControl;
  ack.mode = AddressMode::kUnicast;
  ack.sender = self;
  ack.destinations.push_back(to);
  ack.payload_bytes = kArqAckBytes;
  ack.payload = std::move(payload);
  ++acks_sent_;
  network_.Send(std::move(ack));
}

bool ArqTransport::IsQuarantined(NodeId self, NodeId neighbor) const {
  const auto& per_node = quarantine_[self];
  const auto it = per_node.find(neighbor);
  return it != per_node.end() && network_.sim().Now() < it->second.until;
}

void ArqTransport::Strike(NodeId self, NodeId neighbor) {
  Quarantine& q = quarantine_[self][neighbor];
  if (++q.strikes < options_.quarantine_threshold) return;
  q.strikes = 0;
  q.backoff = q.backoff == 0
                  ? options_.quarantine_base_ms
                  : std::min(q.backoff * 2, options_.quarantine_max_ms);
  q.until = network_.sim().Now() + q.backoff;
  ++quarantines_;
  if (quarantine_hook_) quarantine_hook_(self, neighbor, q.until);
}

void ArqTransport::ClearStrikes(NodeId self, NodeId neighbor) {
  const auto it = quarantine_[self].find(neighbor);
  if (it == quarantine_[self].end()) return;
  Quarantine& q = it->second;
  q.strikes = 0;
  q.until = 0;
  // Hysteresis: one good ack halves the backoff instead of erasing it, so
  // a flapping neighbor earns trust back gradually.
  q.backoff /= 2;
  if (q.backoff == 0) quarantine_[self].erase(it);
}

std::uint32_t ArqTransport::AcquireSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    slots_[index].in_use = true;
    return index;
  }
  slots_.emplace_back();
  slots_.back().in_use = true;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void ArqTransport::ReleaseSlot(std::uint32_t index) {
  PendingSlot& slot = slots_[index];
  live_[slot.msg.sender].erase(slot.seq);
  slot.in_use = false;
  ++slot.generation;
  slot.msg = Message{};
  slot.unacked.clear();
  free_slots_.push_back(index);
}

}  // namespace ttmqo
