#include "reliable/arq.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace ttmqo {
namespace {

// First retransmit timeout; doubled per attempt up to the cap.
constexpr SimDuration kBaseRtoMs = 256;
constexpr SimDuration kMaxRtoMs = 4096;
static_assert(kBaseRtoMs > 0 && kMaxRtoMs >= kBaseRtoMs, "bad RTO bounds");

// Deterministic per-(sender, seq) jitter added to every RTO, in
// [0, kJitterMs].
constexpr SimDuration kJitterMs = 32;

// Transmissions per hop before giving up (first send included).
constexpr int kMaxAttempts = 4;
static_assert(kMaxAttempts >= 1, "need >= 1 attempt");
static_assert(std::tuple_size_v<ArqJitterMs> == kMaxAttempts &&
                  kJitterMs <= std::numeric_limits<std::uint8_t>::max(),
              "one jitter byte per attempt");

// Give-up strikes against one neighbor before it is quarantined.
constexpr int kQuarantineThreshold = 2;

// First quarantine duration; doubled per quarantine (hysteresis) up to
// the cap.
constexpr SimDuration kQuarantineBaseMs = 4096;
constexpr SimDuration kQuarantineMaxMs = 32768;

// Receiver-side duplicate-detection window per (receiver, sender):
// sequence numbers more than this far behind the newest seen are
// forgotten (bounded memory for long-lived runs).
constexpr std::uint32_t kDedupWindow = 1024;

}  // namespace

SimDuration ArqBackoff(int backoff_exponent) {
  CheckArg(backoff_exponent >= 0, "ArqBackoff: negative backoff exponent");
  SimDuration rto = kBaseRtoMs;
  for (int i = 0; i < backoff_exponent && rto < kMaxRtoMs; ++i) rto *= 2;
  return std::min(rto, kMaxRtoMs);
}

ArqJitterMs ArqJitters(std::uint64_t seed, NodeId sender, std::uint32_t seq) {
  std::array<std::int64_t, kMaxAttempts> draws;
  Rng::FirstUniformInts(
      Rng::ForkSeed(seed, (static_cast<std::uint64_t>(sender) << 32) |
                              static_cast<std::uint64_t>(seq)),
      0, kJitterMs, draws);
  ArqJitterMs jitter_ms;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    jitter_ms[i] = static_cast<std::uint8_t>(draws[i]);
  }
  return jitter_ms;
}

ArqTransport::ArqTransport(Network& network, ArqOptions options)
    : network_(network),
      seed_(options.seed),
      upper_(network.topology().size()),
      next_seq_(network.topology().size(), 0),
      live_(network.topology().size()),
      seen_(network.topology().size()),
      quarantine_(network.topology().size()) {}

void ArqTransport::Attach(NodeId node, Network::Receiver upper) {
  upper_[node] = std::move(upper);
  // Tier 2 learns liveness and has-data facts from overheard traffic.
  network_.SetReceiver(
      node,
      [this, node](const Message& msg, bool addressed) {
        OnReceive(node, msg, addressed);
      },
      Network::Hearing::kOverheard);
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
  slot.jitter_ms = ArqJitters(seed_, sender, seq);
  slot.unacked.assign(msg.destinations.begin(), msg.destinations.end());
  msg.payload = std::make_shared<ArqDataPayload>(seq, std::move(msg.payload));
  msg.payload_bytes += kArqHeaderBytes;
  slot.cls = msg.cls;
  slot.sender = sender;
  slot.payload = msg.payload;
  slot.payload_bytes = msg.payload_bytes;
  live_[sender].emplace(seq, index);
  ++sends_;

  // Give-up re-routes and repair traffic fire from timers, when the
  // sender may have dozed off between epochs; the radio insists on an
  // awake sender for every transmission.
  if (network_.IsAsleep(sender)) network_.SetAsleep(sender, false);
  network_.Send(std::move(msg));
  ScheduleTimeout(index);
}

void ArqTransport::ScheduleTimeout(std::uint32_t index) {
  PendingSlot& slot = slots_[index];
  const int retry = slot.attempt - 1;
  const SimDuration rto =
      ArqBackoff(retry) + slot.jitter_ms[static_cast<std::size_t>(retry)];
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
  const NodeId sender = slot.sender;

  if (slot.attempt >= kMaxAttempts || now >= slot.deadline) {
    // Budget spent: strike every silent destination, hand the original
    // payload to the engine (it may re-route), and recycle the slot.
    ++give_ups_;
    for (NodeId dest : slot.unacked) Strike(sender, dest);
    if (give_up_) {
      const auto* data =
          static_cast<const ArqDataPayload*>(slot.payload.get());
      GiveUpInfo info;
      info.cls = slot.cls;
      info.sender = sender;
      info.inner = data->inner;
      info.inner_bytes = slot.payload_bytes - kArqHeaderBytes;
      info.unacked.assign(slot.unacked.begin(), slot.unacked.end());
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
  Message retry;
  retry.cls = slot.cls;
  retry.mode = slot.unacked.size() == 1 ? AddressMode::kUnicast
                                        : AddressMode::kMulticast;
  retry.sender = sender;
  retry.destinations = slot.unacked;
  retry.payload_bytes = slot.payload_bytes;
  retry.payload = slot.payload;
  if (network_.IsAsleep(sender)) network_.SetAsleep(sender, false);
  network_.Send(std::move(retry));
  ScheduleTimeout(index);
}

void ArqTransport::OnReceive(NodeId self, const Message& msg,
                             bool addressed) {
  if (const auto* data = PayloadAs<ArqDataPayload>(msg.payload.get())) {
    if (addressed) {
      // Ack every addressed copy — re-acking duplicates is what resolves
      // the ack-was-lost ambiguity on the sender side.
      SendAck(self, msg.sender, data->seq);
      SeenWindow& window = seen_[self][msg.sender];
      const bool below_window =
          window.max_seen > kDedupWindow &&
          data->seq < window.max_seen - kDedupWindow;
      if (below_window || !window.seqs.insert(data->seq).second) {
        ++duplicates_dropped_;
        return;
      }
      if (data->seq > window.max_seen) {
        window.max_seen = data->seq;
        // Slide the window: sequence numbers too old to be live duplicates
        // are forgotten, bounding the table for long-lived runs.
        if (window.max_seen > kDedupWindow) {
          const std::uint32_t floor = window.max_seen - kDedupWindow;
          window.seqs.erase(window.seqs.begin(),
                            window.seqs.lower_bound(floor));
        }
      }
    }
    if (!upper_[self]) return;
    // Hand up the application-level message, so the engine sees exactly
    // what it would without the transport (overhearing included).  One
    // member is rebuilt for every reception: none re-enters this function,
    // because `Network::Deliver` runs only from an attempt's completion
    // event and every send, the upper handler's included, only schedules.
    unwrapped_.cls = msg.cls;
    unwrapped_.mode = msg.mode;
    unwrapped_.sender = msg.sender;
    unwrapped_.destinations.assign(msg.destinations.begin(),
                                   msg.destinations.end());
    unwrapped_.payload_bytes = msg.payload_bytes - kArqHeaderBytes;
    unwrapped_.payload = data->inner;
    upper_[self](unwrapped_, addressed);
    unwrapped_.payload.reset();
    return;
  }

  if (const auto* ack = PayloadAs<ArqAckPayload>(msg.payload.get())) {
    if (addressed) {
      auto& live = live_[self];
      const auto it = live.find(ack->seq);
      if (it != live.end()) {
        PendingSlot& slot = slots_[it->second];
        slot.unacked.erase(
            std::remove(slot.unacked.begin(), slot.unacked.end(), msg.sender),
            slot.unacked.end());
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
  if (++q.strikes < kQuarantineThreshold) return;
  q.strikes = 0;
  q.backoff = q.backoff == 0
                  ? kQuarantineBaseMs
                  : std::min(q.backoff * 2, kQuarantineMaxMs);
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
  live_[slot.sender].erase(slot.seq);
  slot.in_use = false;
  ++slot.generation;
  slot.payload.reset();
  slot.unacked.clear();
  free_slots_.push_back(index);
}

}  // namespace ttmqo
