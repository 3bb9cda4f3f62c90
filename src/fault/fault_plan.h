// Declarative, deterministic fault injection.
//
// A `FaultPlan` is a validated schedule of fault events — permanent
// crashes, transient outages with recovery, per-link loss degradation
// windows, and region partitions — applied to a `Network` before a run
// starts.  Everything is data: the same plan and master seed reproduce the
// exact same fault timeline, so chaos experiments replay byte-for-byte.
//
// The paper (Section 5) defers failure handling to future work; this
// subsystem supplies the fault model that the hardening in the engines is
// tested against.  Crashes map to `Network::FailNode` (loud: engines can
// see `IsFailed`), outages and partitions map to `SetDown`/`Recover`
// (silent: only liveness tracking can detect them), and link events map to
// `SetLinkLoss`/`ClearLinkLoss` (independent per-receiver erasure,
// orthogonal to the contention model).
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "net/topology.h"
#include "util/ids.h"
#include "util/time.h"

namespace ttmqo {

class Network;

/// A permanent crash: `node` dies at `time` and never comes back.
struct CrashEvent {
  SimTime time = 0;
  NodeId node = 0;
};

/// A transient outage: `node` is unreachable during [from, until), then
/// recovers.  Silent — engines receive no failure signal.
struct OutageEvent {
  NodeId node = 0;
  SimTime from = 0;
  SimTime until = 0;
};

/// A link degradation window: the (symmetric) link a—b independently loses
/// each delivery with probability `prob` during [from, until).
/// `until == 0` means "for the rest of the run".
struct LinkLossEvent {
  NodeId a = 0;
  NodeId b = 0;
  double prob = 0.0;
  SimTime from = 0;
  SimTime until = 0;
};

/// A region partition: every listed node is down during [from, until).
struct PartitionEvent {
  std::vector<NodeId> nodes;
  SimTime from = 0;
  SimTime until = 0;
};

/// Parameters for `FaultPlan::RandomTransient`.
struct RandomFaultParams {
  /// Upper bound on the number of outages drawn.
  std::size_t max_outages = 6;
  /// At most this fraction of non-base-station nodes is ever a victim.
  double max_down_fraction = 0.2;
  /// Outage duration bounds (ms).
  SimDuration min_outage_ms = 2 * kMinEpochDurationMs;
  SimDuration max_outage_ms = 8 * kMinEpochDurationMs;
  /// Outages start within [window_from, window_until) of the run.
  SimTime window_from = 0;
  SimTime window_until = 0;  ///< 0 = duration - max_outage_ms
  /// Uniform link loss applied to every link for the whole run.
  double link_loss = 0.0;
};

/// A deterministic schedule of fault events for one run.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Fluent builders (all return *this for chaining).
  FaultPlan& AddCrash(NodeId node, SimTime at);
  FaultPlan& AddOutage(NodeId node, SimTime from, SimTime until);
  FaultPlan& AddLinkLoss(NodeId a, NodeId b, double prob, SimTime from = 0,
                         SimTime until = 0);
  FaultPlan& AddPartition(std::vector<NodeId> nodes, SimTime from,
                          SimTime until);

  /// Loss probability applied to every link without an override, for the
  /// whole run.  Must be in [0, 1).
  FaultPlan& SetDefaultLinkLoss(double prob);

  const std::vector<CrashEvent>& crashes() const { return crashes_; }
  const std::vector<OutageEvent>& outages() const { return outages_; }
  const std::vector<LinkLossEvent>& link_events() const {
    return link_events_;
  }
  const std::vector<PartitionEvent>& partitions() const {
    return partitions_;
  }
  double default_link_loss() const { return default_link_loss_; }

  /// True when the plan schedules nothing at all.
  bool Empty() const;

  /// Checks the plan against a deployment and run duration; throws
  /// `std::invalid_argument` with a clear message on the first problem:
  /// base-station faults, out-of-range nodes, duplicate crashes, outages on
  /// crashed nodes or overlapping outages of one node, inverted or
  /// out-of-run windows, loss probabilities outside [0, 1), link events on
  /// non-neighbor pairs.
  void Validate(const Topology& topology, SimDuration duration_ms) const;

  /// Schedules every event on `network`'s simulator (call once, before the
  /// run).  Applies `default_link_loss` immediately.  When the network is
  /// tracing, each event also emits a "fault.*" trace event through it.
  void ScheduleOn(Network& network) const;

  /// True when `node` is reachable at time `t` under this plan: not crashed
  /// at or before `t` and not inside any outage or partition window.
  /// (Link loss does not affect liveness.)
  bool AliveAt(NodeId node, SimTime t) const;

  /// Writes the resolved plan as one JSON object (no trailing newline).
  void WriteJson(std::ostream& out) const;

  /// Draws a random plan of transient outages (plus optional uniform link
  /// loss) for a deployment of `num_nodes` nodes and a run of
  /// `duration_ms`.  Victims are distinct non-base-station nodes, at most
  /// `max_down_fraction` of them; deterministic in `seed`.
  static FaultPlan RandomTransient(const RandomFaultParams& params,
                                   std::size_t num_nodes,
                                   SimDuration duration_ms,
                                   std::uint64_t seed);

 private:
  std::vector<CrashEvent> crashes_;
  std::vector<OutageEvent> outages_;
  std::vector<LinkLossEvent> link_events_;
  std::vector<PartitionEvent> partitions_;
  double default_link_loss_ = 0.0;
};

}  // namespace ttmqo
