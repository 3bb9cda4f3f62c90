#include "net/network.h"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace ttmqo {

namespace {

// A collided transmission is retried at most this many times, then
// dropped.
constexpr int kMaxRetries = 5;
static_assert(kMaxRetries >= 0, "max retries must be >= 0");

// Deterministic linear backoff: retry i waits i * kBackoffMs.
constexpr SimDuration kBackoffMs = 16;
static_assert(kBackoffMs >= 0, "backoff must be >= 0");

std::pair<NodeId, NodeId> LinkKey(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

}  // namespace

Network::Network(const Topology& topology, RadioParams radio,
                 ChannelParams channel, std::uint64_t seed)
    : topology_(&topology),
      radio_(radio),
      channel_(channel),
      link_quality_(topology, seed ^ 0x6c696e6bULL),
      ledger_(topology.size()),
      rng_(seed),
      loss_rng_(seed ^ 0x6c6f7373ULL),
      receivers_(topology.size()),
      asleep_(topology.size(), 0),
      failed_(topology.size(), 0),
      down_(topology.size(), 0),
      down_since_(topology.size(), 0),
      sleep_since_(topology.size(), 0),
      busy_until_(topology.size(), 0),
      flight_ends_(topology.size()),
      active_slot_(topology.size(), 0) {
  channel_.Validate();
}

void Network::SetReceiver(NodeId node, Receiver receiver) {
  receivers_.at(node) = std::move(receiver);
}

void Network::SetAsleep(NodeId node, bool asleep) {
  if (failed_.at(node) || down_.at(node)) return;  // no power state while dark
  if ((asleep_.at(node) != 0) == asleep) return;
  asleep_[node] = asleep ? 1 : 0;
  if (!observers_.empty()) observers_.OnSleepChange(sim_.Now(), node, asleep);
  if (asleep) {
    ledger_.CountSleepTransition(node);
    sleep_since_[node] = sim_.Now();
  } else {
    ledger_.AddSleep(node, static_cast<double>(sim_.Now() - sleep_since_[node]));
  }
}

void Network::FailNode(NodeId node) {
  CheckArg(node != kBaseStationId, "Network::FailNode: cannot fail the sink");
  CheckArg(node < topology_->size(), "Network::FailNode: bad node");
  if (failed_[node]) return;
  if (down_[node]) {  // a crash absorbs a pending outage
    down_[node] = 0;
    --num_down_;
  }
  failed_[node] = 1;
  ++num_failed_;
  obs::RecordFlight("fault.crash", sim_.Now(), node);
  if (!observers_.empty()) observers_.OnNodeFailed(sim_.Now(), node);
}

void Network::SetDown(NodeId node) {
  CheckArg(node != kBaseStationId, "Network::SetDown: cannot down the sink");
  CheckArg(node < topology_->size(), "Network::SetDown: bad node");
  if (failed_[node] || down_[node]) return;
  if (asleep_[node]) SetAsleep(node, false);  // close the open sleep span
  down_[node] = 1;
  down_since_[node] = sim_.Now();
  ++num_down_;
  ledger_.CountOutage(node);
  obs::RecordFlight("fault.down", sim_.Now(), node);
  if (!observers_.empty()) observers_.OnNodeDown(sim_.Now(), node);
}

void Network::Recover(NodeId node) {
  CheckArg(node < topology_->size(), "Network::Recover: bad node");
  if (failed_[node] || !down_[node]) return;
  down_[node] = 0;
  --num_down_;
  ledger_.CountRecovery(node);
  const SimDuration down_ms = sim_.Now() - down_since_[node];
  obs::RecordFlight("fault.recover", sim_.Now(), node, down_ms);
  if (!observers_.empty()) observers_.OnNodeRecovered(sim_.Now(), node, down_ms);
}

void Network::SetDefaultLinkLoss(double p) {
  CheckArg(p >= 0.0 && p < 1.0,
           "Network::SetDefaultLinkLoss: p must be in [0,1)");
  default_link_loss_ = p;
}

void Network::SetLinkLoss(NodeId a, NodeId b, double p) {
  CheckArg(p >= 0.0 && p < 1.0, "Network::SetLinkLoss: p must be in [0,1)");
  CheckArg(topology_->AreNeighbors(a, b),
           "Network::SetLinkLoss: nodes are not radio neighbors");
  link_loss_[LinkKey(a, b)] = p;
}

void Network::ClearLinkLoss(NodeId a, NodeId b) {
  link_loss_.erase(LinkKey(a, b));
}

double Network::LinkLossOf(NodeId a, NodeId b) const {
  const auto it = link_loss_.find(LinkKey(a, b));
  return it != link_loss_.end() ? it->second : default_link_loss_;
}

void Network::Send(Message msg) {
  CheckArg(msg.sender < topology_->size(), "Network::Send: bad sender");
  if (failed_[msg.sender] || down_[msg.sender]) {
    return;  // a dark radio transmits nothing
  }
  CheckArg(!asleep_[msg.sender], "Network::Send: sender is asleep");
  if (msg.mode == AddressMode::kBroadcast) {
    CheckArg(msg.destinations.empty(),
             "Network::Send: broadcast must not list destinations");
  } else {
    CheckArg(!msg.destinations.empty(),
             "Network::Send: unicast/multicast needs destinations");
    CheckArg(msg.mode != AddressMode::kUnicast || msg.destinations.size() == 1,
             "Network::Send: unicast takes exactly one destination");
    for (NodeId dest : msg.destinations) {
      CheckArg(topology_->AreNeighbors(msg.sender, dest),
               "Network::Send: destination is not a radio neighbor");
    }
  }
  BeginAttempt(std::move(msg), /*attempt=*/0);
}

void Network::AddFlight(NodeId sender, SimTime end) {
  std::vector<SimTime>& ends = flight_ends_[sender];
  if (ends.empty()) {
    active_slot_[sender] = static_cast<std::uint32_t>(active_senders_.size());
    active_senders_.push_back(sender);
  }
  ends.push_back(end);
  ++total_flights_;
}

void Network::RemoveFlight(NodeId sender, SimTime end) {
  std::vector<SimTime>& ends = flight_ends_[sender];
  for (std::size_t i = 0; i < ends.size(); ++i) {
    if (ends[i] != end) continue;
    ends[i] = ends.back();
    ends.pop_back();
    --total_flights_;
    if (ends.empty()) {
      const std::uint32_t slot = active_slot_[sender];
      const NodeId last = active_senders_.back();
      active_senders_[slot] = last;
      active_slot_[last] = slot;
      active_senders_.pop_back();
    }
    return;
  }
}

void Network::BeginAttempt(Message msg, int attempt) {
  const NodeId sender = msg.sender;
  const double duration_ms = radio_.TransmitDurationMs(msg.payload_bytes);
  const auto duration = static_cast<SimDuration>(std::ceil(duration_ms));
  const SimTime start = std::max(sim_.Now(), busy_until_[sender]);
  busy_until_[sender] = start + duration;
  ledger_.ChargeTransmit(sender, msg.cls, duration_ms,
                         /*is_retransmission=*/attempt > 0);
  if (!observers_.empty()) {
    observers_.OnTransmit(start, msg, duration_ms, attempt > 0);
  }
  AddFlight(sender, start + duration);
  auto complete = [this, msg = std::move(msg), attempt, start]() mutable {
    CompleteAttempt(std::move(msg), attempt, start);
  };
  static_assert(Simulator::EventFn::kFitsInline<decltype(complete)>,
                "the completion capture must stay in the inline buffer");
  sim_.ScheduleAt(start + duration, std::move(complete));
}

void Network::CompleteAttempt(Message msg, int attempt, SimTime started) {
  TTMQO_SPAN_SAMPLED("net.complete_attempt", 8);
  const NodeId sender = msg.sender;
  // Retire this flight record (even for a sender that went dark mid-air,
  // so stale flights never linger in the interference count).
  RemoveFlight(sender, sim_.Now());
  if (failed_[sender] || down_[sender]) {
    return;  // went dark mid-air: nothing is delivered, retries die
  }
  bool collided = false;
  if (channel_.collision_prob > 0.0) {
    const std::size_t interferers = CountInterferers(sender, started);
    if (interferers > 0) {
      const double survive = std::pow(1.0 - channel_.collision_prob,
                                      static_cast<double>(interferers));
      collided = !rng_.Bernoulli(survive);
    }
  }
  if (!collided) {
    Deliver(msg);
  } else if (attempt >= kMaxRetries) {
    ledger_.CountDrop(sender);
    if (!observers_.empty()) observers_.OnDrop(sim_.Now(), msg);
  } else {
    const SimDuration backoff = kBackoffMs * (attempt + 1);
    auto retry = [this, msg = std::move(msg), attempt]() mutable {
      BeginAttempt(std::move(msg), attempt + 1);
    };
    static_assert(Simulator::EventFn::kFitsInline<decltype(retry)>,
                  "the retry capture must stay in the inline buffer");
    sim_.ScheduleAfter(backoff, std::move(retry));
  }
}

std::size_t Network::CountInterferers(NodeId sender, SimTime started) const {
  // Transmissions overlapping [started, now] whose sender lies within the
  // precomputed interference set (twice the radio range) of `sender`: a
  // bitset membership test over the senders with active flights.  The
  // `end > started` filter preserves the exact legacy overlap semantics.
  std::size_t count = 0;
  for (const NodeId other : active_senders_) {
    if (other == sender || !topology_->InInterferenceRange(sender, other)) {
      continue;
    }
    for (const SimTime end : flight_ends_[other]) {
      count += end > started ? 1 : 0;
    }
  }
  return count;
}

void Network::Deliver(const Message& msg) {
  TTMQO_SPAN_SAMPLED("net.deliver", 8);
  // Hot-path short circuits, hoisted out of the per-neighbor loop: the
  // destination-membership strategy is picked once, and the loss lookup is
  // skipped entirely on a lossless channel — the common case.  Large
  // multicasts are answered by binary search over a sorted scratch copy;
  // small ones by a linear scan of the original.
  constexpr std::size_t kSmallDestinations = 8;
  const bool use_sorted = msg.mode == AddressMode::kMulticast &&
                          msg.destinations.size() > kSmallDestinations;
  if (use_sorted) {
    dest_scratch_.assign(msg.destinations.begin(), msg.destinations.end());
    std::sort(dest_scratch_.begin(), dest_scratch_.end());
  }
  const bool lossy = default_link_loss_ > 0.0 || !link_loss_.empty();
  for (NodeId neighbor : topology_->NeighborsOf(msg.sender)) {
    if (failed_[neighbor] || down_[neighbor]) continue;
    const Receiver& receiver = receivers_[neighbor];
    if (!receiver) continue;
    const bool addressed =
        msg.mode == AddressMode::kBroadcast ||
        (use_sorted
             ? std::binary_search(dest_scratch_.begin(), dest_scratch_.end(),
                                  neighbor)
             : std::find(msg.destinations.begin(), msg.destinations.end(),
                         neighbor) != msg.destinations.end());
    // Low-power listening: a sleeping radio still catches traffic addressed
    // to it (the sender's preamble wakes it) but cannot overhear.
    if (asleep_[neighbor] && !addressed) continue;
    // Independent per-receiver link loss (orthogonal to the contention
    // model): the sender never learns about the loss and does not retry.
    if (lossy) {
      const double loss = LinkLossOf(msg.sender, neighbor);
      if (loss > 0.0 && loss_rng_.Bernoulli(loss)) {
        ledger_.CountLinkDrop(neighbor);
        if (!observers_.empty()) {
          observers_.OnLinkDrop(sim_.Now(), msg, neighbor);
        }
        continue;
      }
    }
    if (addressed) ledger_.CountReceive(neighbor);
    receiver(msg, addressed);
  }
}

void Network::StartMaintenanceBeacons(SimDuration period,
                                      std::size_t payload_bytes) {
  CheckArg(period > 0, "StartMaintenanceBeacons: period must be positive");
  for (NodeId node : topology_->AllNodes()) {
    // Stagger nodes across the period so beacons do not synchronize.
    const SimDuration offset = static_cast<SimDuration>(node) * period /
                               static_cast<SimDuration>(topology_->size());
    sim_.ScheduleAfter(offset, [this, node, period, payload_bytes] {
      BeaconTick(node, period, payload_bytes);
    });
  }
}

void Network::BeaconTick(NodeId node, SimDuration period,
                         std::size_t payload_bytes) {
  if (failed_[node]) return;  // a dead node's beacon chain ends
  if (!asleep_[node] && !down_[node]) {
    Message msg;
    msg.cls = MessageClass::kMaintenance;
    msg.mode = AddressMode::kBroadcast;
    msg.sender = node;
    msg.payload_bytes = payload_bytes;
    // `Send`'s validation is pre-satisfied for a broadcast from an awake,
    // alive sender, so the attempt starts directly.
    BeginAttempt(std::move(msg), /*attempt=*/0);
  }
  sim_.ScheduleAfter(period, [this, node, period, payload_bytes] {
    BeaconTick(node, period, payload_bytes);
  });
}

void Network::FinalizeAccounting() {
  for (NodeId node = 0; node < topology_->size(); ++node) {
    if (!asleep_[node]) continue;
    ledger_.AddSleep(node, static_cast<double>(sim_.Now() - sleep_since_[node]));
    sleep_since_[node] = sim_.Now();
  }
}

}  // namespace ttmqo
