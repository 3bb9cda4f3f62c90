#include "net/network.h"

#include <algorithm>
#include <cmath>

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

// A radio event about `node`, e.g. {"event":"fail","t":..,"node":3}.
TraceEvent NodeEvent(const char* kind, NodeId node) {
  return TraceEvent(kind).With("node", static_cast<std::int64_t>(node));
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
      overhears_(topology.size(), 0),
      asleep_(topology.size(), 0),
      failed_(topology.size(), 0),
      down_(topology.size(), 0),
      down_since_(topology.size(), 0),
      sleep_since_(topology.size(), 0),
      busy_until_(topology.size(), 0),
      flights_(topology.size(), 0) {
  channel_.Validate();
  // `CountInterferers` relies on every attempt taking positive time.
  CheckArg(radio_.start_ms > 0 && radio_.per_byte_ms >= 0,
           "Network: a transmission must take positive time");
}

void Network::SetReceiver(NodeId node, Receiver receiver, Hearing hearing) {
  if (overhears_.at(node) != 0) --num_overhearing_;
  overhears_[node] = receiver && hearing == Hearing::kOverheard ? 1 : 0;
  if (overhears_[node] != 0) ++num_overhearing_;
  receivers_[node] = std::move(receiver);
}

void Network::Emit(const TraceEvent& event) {
  if (trace_ == nullptr) return;
  TraceEvent stamped = event;
  stamped.time = sim_.Now();
  trace_->Emit(stamped);
}

void Network::SetAsleep(NodeId node, bool asleep) {
  if (failed_.at(node) || down_.at(node)) return;  // no power state while dark
  if ((asleep_.at(node) != 0) == asleep) return;
  asleep_[node] = asleep ? 1 : 0;
  if (tracing()) Emit(NodeEvent(asleep ? "sleep" : "wake", node));
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
  if (tracing()) Emit(NodeEvent("fail", node));
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
  if (tracing()) Emit(NodeEvent("down", node));
}

void Network::Recover(NodeId node) {
  CheckArg(node < topology_->size(), "Network::Recover: bad node");
  if (failed_[node] || !down_[node]) return;
  down_[node] = 0;
  --num_down_;
  ledger_.CountRecovery(node);
  const SimDuration down_ms = sim_.Now() - down_since_[node];
  if (tracing()) Emit(NodeEvent("recover", node).With("down_ms", down_ms));
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

void Network::BeginAttempt(Message msg, int attempt) {
  const NodeId sender = msg.sender;
  const double duration_ms = radio_.TransmitDurationMs(msg.payload_bytes);
  const auto duration = static_cast<SimDuration>(std::ceil(duration_ms));
  const SimTime start = std::max(sim_.Now(), busy_until_[sender]);
  busy_until_[sender] = start + duration;
  ledger_.ChargeTransmit(sender, msg.cls, duration_ms,
                         /*is_retransmission=*/attempt > 0);
  if (tracing()) {
    // Stamped with the attempt's start, which is later than Now() while
    // the sender's radio is busy, so it bypasses the stamping `Emit`.
    TraceEvent tx("tx");
    tx.time = start;
    tx.With("from", static_cast<std::int64_t>(sender))
        .With("class", std::string(MessageClassName(msg.cls)))
        .With("bytes", static_cast<std::int64_t>(msg.payload_bytes))
        .With("ms", duration_ms)
        .With("retx", attempt > 0)
        .With("dests", std::vector<std::int64_t>(msg.destinations.begin(),
                                                 msg.destinations.end()));
    trace_->Emit(tx);
  }
  ++flights_[sender];
  auto complete = [this, msg = std::move(msg), attempt]() mutable {
    CompleteAttempt(std::move(msg), attempt);
  };
  static_assert(Simulator::EventFn::kFitsInline<decltype(complete)>,
                "the completion capture must stay in the inline buffer");
  sim_.ScheduleAt(start + duration, std::move(complete));
}

void Network::CompleteAttempt(Message msg, int attempt) {
  TTMQO_SPAN_SAMPLED("net.complete_attempt", 8);
  const NodeId sender = msg.sender;
  // Retire this flight (even for a sender that went dark mid-air, so stale
  // flights never linger in the interference count).
  --flights_[sender];
  if (failed_[sender] || down_[sender]) {
    return;  // went dark mid-air: nothing is delivered, retries die
  }
  bool collided = false;
  if (channel_.collision_prob > 0.0) {
    const std::size_t interferers = CountInterferers(sender);
    if (interferers > 0) {
      collided = !rng_.Bernoulli(SurviveProbability(interferers));
    }
  }
  if (!collided) {
    Deliver(msg);
  } else if (attempt >= kMaxRetries) {
    ledger_.CountDrop(sender);
    if (tracing()) {
      Emit(TraceEvent("drop")
               .With("from", static_cast<std::int64_t>(sender))
               .With("class", std::string(MessageClassName(msg.cls))));
    }
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

double Network::SurviveProbability(std::size_t interferers) {
  // The table grows to the largest count seen; each entry is the same
  // std::pow call a completion would make, so the channel is unchanged.
  while (survive_.size() <= interferers) {
    survive_.push_back(std::pow(1.0 - channel_.collision_prob,
                                static_cast<double>(survive_.size())));
  }
  return survive_[interferers];
}

std::size_t Network::CountInterferers(NodeId sender) const {
  // Registered flights of the senders within interference range (twice the
  // radio range) of `sender`.  Every one of them overlaps the completing
  // attempt, so none needs an end-time test: a flight stays registered
  // until its own completion runs at its end time, so it ends at or after
  // Now(), and Now() is later than the completing attempt's start, because
  // an attempt lasts at least ceil(C_start) ms and the constructor checks
  // C_start > 0.
  std::size_t count = 0;
  for (const NodeId other : topology_->InterferersOf(sender)) {
    count += flights_[other];
  }
  return count;
}

void Network::Deliver(const Message& msg) {
  TTMQO_SPAN_SAMPLED("net.deliver", 8);
  // The loss lookup is skipped entirely on a lossless channel — the common
  // case.
  const bool lossy = default_link_loss_ > 0.0 || !link_loss_.empty();
  if (msg.mode == AddressMode::kUnicast && !lossy && num_overhearing_ == 0) {
    // No neighbor draws a loss and none acts on overheard traffic, so the
    // loop below would call the destination alone: call it directly.  A
    // sleeping destination still receives (low-power listening).
    const NodeId dest = msg.destinations.front();
    if (failed_[dest] || down_[dest]) return;
    const Receiver& receiver = receivers_[dest];
    if (!receiver) return;
    ledger_.CountReceive(dest);
    receiver(msg, /*addressed=*/true);
    return;
  }
  // Destinations are found by a linear scan: tier 2's multicasts address
  // at most a few parents.
  for (NodeId neighbor : topology_->NeighborsOf(msg.sender)) {
    if (failed_[neighbor] || down_[neighbor]) continue;
    const Receiver& receiver = receivers_[neighbor];
    if (!receiver) continue;
    const bool addressed =
        msg.mode == AddressMode::kBroadcast ||
        std::find(msg.destinations.begin(), msg.destinations.end(),
                  neighbor) != msg.destinations.end();
    // Low-power listening: a sleeping radio still catches traffic addressed
    // to it (the sender's preamble wakes it) but cannot overhear.
    if (asleep_[neighbor] && !addressed) continue;
    // Independent per-receiver link loss (orthogonal to the contention
    // model): the sender never learns about the loss and does not retry.
    if (lossy) {
      const double loss = LinkLossOf(msg.sender, neighbor);
      if (loss > 0.0 && loss_rng_.Bernoulli(loss)) {
        ledger_.CountLinkDrop(neighbor);
        if (tracing()) {
          Emit(TraceEvent("linkdrop")
                   .With("from", static_cast<std::int64_t>(msg.sender))
                   .With("to", static_cast<std::int64_t>(neighbor))
                   .With("class", std::string(MessageClassName(msg.cls))));
        }
        continue;
      }
    }
    // Skipped only after its loss draw, so the loss stream and the link-drop
    // counts do not depend on who listens.
    if (!addressed && !overhears_[neighbor]) continue;
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
