// The radio network: topology + channel + accounting + event loop.
//
// `Network` mediates every transmission.  A transmission occupies the
// sender's radio for `C_start + C_trans * len` ms (a node's sends serialize
// on its own radio); on completion it is delivered to the addressed
// neighbors and overheard by every other awake neighbor — the broadcast
// nature of the channel the in-network tier exploits (Section 3.2).  Each
// receiver states whether it acts on overheard traffic (`Hearing`); one
// that does not is never called for it.  While no receiver overhears, a
// unicast on a lossless channel goes straight to its destination, the one
// node the neighbor loop would call.  Every other delivery runs the loop,
// where each neighbor draws its link loss whether or not it listens, so
// the loss stream never depends on who registered what.  An
// optional contention model corrupts transmissions with a probability that
// grows with the number of concurrently in-flight interfering
// transmissions (counted per sender, over the sender's precomputed
// interferer list, so a check costs the same at any network size or queue
// depth); failed attempts are retried with linear backoff and
// charged to the sender as retransmissions, reproducing the paper's
// "retransmission messages due to transmission failure" accounting.
//
// The network owns its event loop and its per-node radio state (plain
// node-indexed vectors).  Transmission completions, collision retries and
// maintenance beacon ticks are ordinary pooled events on that loop, whose
// captures fit the event slab's inline buffer, so the steady state never
// allocates.
//
// The network is also the run's one trace path.  With a sink installed it
// emits its radio events as `TraceEvent`s, and its `Emit` stamps every
// other layer's events (engines, fault plan, optimizer, runner) with the
// simulation time before forwarding them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "net/ledger.h"
#include "net/link_quality.h"
#include "net/message.h"
#include "net/radio.h"
#include "net/simulator.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/tracing.h"

namespace ttmqo {

/// The radio channel of one deployment.
class Network final : public TraceSink {
 public:
  /// Receives a delivered or overheard message.  `addressed` is true when
  /// this node is an intended destination (broadcasts address everyone).
  using Receiver =
      std::function<void(const Message& msg, bool addressed)>;

  /// Whether a receiver acts on traffic addressed to other nodes.
  enum class Hearing : std::uint8_t {
    /// Called only with `addressed == true`.
    kAddressedOnly,
    /// Also called, with `addressed == false`, for every message its awake
    /// node overhears.
    kOverheard,
  };

  /// `seed` drives the collision and link-loss models and the link-quality
  /// perturbation.  `topology` must outlive the network.
  Network(const Topology& topology, RadioParams radio, ChannelParams channel,
          std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The event loop (scheduling, Now()).
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  /// The deployment.
  const Topology& topology() const { return *topology_; }

  /// Per-link quality estimates (for parent selection / tie breaking).
  const LinkQualityMap& link_quality() const { return link_quality_; }

  /// Radio accounting.
  RadioLedger& ledger() { return ledger_; }
  const RadioLedger& ledger() const { return ledger_; }

  /// Radio timing parameters.
  const RadioParams& radio() const { return radio_; }

  /// Installs the message handler of `node` (replacing any previous one),
  /// stating whether it hears traffic addressed to other nodes.
  void SetReceiver(NodeId node, Receiver receiver, Hearing hearing);

  /// Marks a node asleep/awake.  Asleep nodes neither receive nor overhear;
  /// sleep time is accounted in the ledger.  Sends from a sleeping node are
  /// rejected.
  void SetAsleep(NodeId node, bool asleep);

  /// True when the node is currently asleep.
  bool IsAsleep(NodeId node) const { return asleep_.at(node) != 0; }

  /// Permanently kills a node (crash fault): it stops receiving, and its
  /// transmissions — including already queued retries — silently vanish.
  /// Used for failure-injection experiments; the base station cannot fail.
  void FailNode(NodeId node);

  /// True when the node has been failed.  Engines may consult this when
  /// selecting routes, modelling beacon-based neighbor failure detection.
  bool IsFailed(NodeId node) const { return failed_.at(node) != 0; }

  /// Number of failed nodes.
  std::size_t NumFailed() const { return num_failed_; }

  /// Begins a transient outage: the node neither sends, receives, nor
  /// overhears until `Recover`.  Unlike `FailNode` the outage is *silent* —
  /// engines get no failure signal and must detect it via liveness.  No-op
  /// on failed or already-down nodes; the base station cannot go down.
  void SetDown(NodeId node);

  /// Ends a transient outage (no-op unless the node is down).
  void Recover(NodeId node);

  /// True when the node is currently unreachable (failed or in an outage).
  bool IsDown(NodeId node) const {
    return failed_.at(node) != 0 || down_.at(node) != 0;
  }

  /// Number of nodes currently in a transient outage.
  std::size_t NumDown() const { return num_down_; }

  /// Probability that a delivery on any link without a per-link override is
  /// lost (independent per receiver; the sender never notices).
  void SetDefaultLinkLoss(double p);

  /// Sets a per-link loss probability override for the (symmetric) link
  /// a—b; both must be radio neighbors.
  void SetLinkLoss(NodeId a, NodeId b, double p);

  /// Removes the per-link override, restoring the default loss.
  void ClearLinkLoss(NodeId a, NodeId b);

  /// Effective loss probability of the link a—b.
  double LinkLossOf(NodeId a, NodeId b) const;

  /// Deliveries lost to lossy links so far (all links; the ledger's sum).
  std::uint64_t link_drops() const { return ledger_.TotalLinkDrops(); }

  /// Queues `msg` for transmission from `msg.sender`.  Destinations must be
  /// radio neighbors of the sender.  The transmission starts when the
  /// sender's radio is free and is delivered (or retried) per the channel
  /// model.
  void Send(Message msg);

  /// Starts a periodic per-node maintenance broadcast (neighbor beacons /
  /// time sync) of `payload_bytes`, one per node per `period`, with node
  /// index staggering.  Models the paper's "periodical network maintenance
  /// messages".
  void StartMaintenanceBeacons(SimDuration period, std::size_t payload_bytes);

  /// Closes every open accounting span at `Now()` — currently the sleep
  /// spans of nodes still asleep (including nodes that failed mid-sleep),
  /// which would otherwise never reach the ledger.  Idempotent: spans
  /// reopen at `Now()`, so later state changes account only the remainder.
  /// The experiment harness calls this before summarizing a run.
  void FinalizeAccounting();

  /// Installs the sink that receives every trace event of the run: the
  /// network's radio events and, through `Emit`, everyone else's.  The
  /// sink is borrowed; nullptr turns tracing off.  Install it before
  /// building engines: the TTMQO engine wires its optimizer to the network
  /// only when `tracing()` is true at construction.
  void SetTraceSink(TraceSink* sink) { trace_ = sink; }

  /// True when a trace sink is installed.  Emitters check this before
  /// building an event, so an untraced run builds none.
  bool tracing() const { return trace_ != nullptr; }

  /// Stamps `event` with the current simulation time and forwards it to
  /// the installed sink; a no-op without one.
  void Emit(const TraceEvent& event) override;

 private:
  void BeginAttempt(Message msg, int attempt);
  void CompleteAttempt(Message msg, int attempt);
  void Deliver(const Message& msg);
  void BeaconTick(NodeId node, SimDuration period, std::size_t payload_bytes);
  std::size_t CountInterferers(NodeId sender) const;
  /// (1 - collision_prob)^interferers, the chance that an attempt with
  /// that many interferers survives; from `survive_`, filled on demand.
  double SurviveProbability(std::size_t interferers);

  Simulator sim_;
  const Topology* topology_;
  RadioParams radio_;
  ChannelParams channel_;
  LinkQualityMap link_quality_;
  RadioLedger ledger_;
  Rng rng_;
  Rng loss_rng_;
  TraceSink* trace_ = nullptr;
  std::size_t num_failed_ = 0;
  std::size_t num_down_ = 0;
  double default_link_loss_ = 0.0;
  /// survive_[k] = std::pow(1 - collision_prob, k), for every k up to the
  /// largest interferer count a completion has seen.
  std::vector<double> survive_;
  /// Per-link loss overrides, keyed by the normalized (low, high) pair.
  std::map<std::pair<NodeId, NodeId>, double> link_loss_;
  /// Nodes whose receiver is set and hears overheard traffic.
  std::size_t num_overhearing_ = 0;
  // ---- Per-node state, indexed by node id. ----
  std::vector<Receiver> receivers_;
  /// 1 iff the node's receiver is set and hears overheard traffic.
  std::vector<std::uint8_t> overhears_;
  std::vector<std::uint8_t> asleep_;
  std::vector<std::uint8_t> failed_;
  std::vector<std::uint8_t> down_;
  std::vector<SimTime> down_since_;
  std::vector<SimTime> sleep_since_;
  std::vector<SimTime> busy_until_;
  /// Registered flights per sender: `BeginAttempt` adds one (including an
  /// attempt queued behind the sender's busy radio), its completion removes
  /// it.
  std::vector<std::uint32_t> flights_;
};

}  // namespace ttmqo
