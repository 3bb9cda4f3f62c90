// Per-node radio accounting.
//
// The evaluation metric is *average transmission time*: "the average
// percentage of transmission time spent on each node for all running
// queries over the simulation time" (Section 4.1), counting result,
// propagation/abort, maintenance, and retransmission traffic.  The channel
// charges every transmission attempt (including failed ones) to the
// sender's ledger.  The ledger is also the run's only count of the other
// radio events — drops, sleep transitions, link losses and outages — which
// the experiment harness exports to the metrics registry at run end.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "util/check.h"
#include "util/ids.h"
#include "util/time.h"

namespace ttmqo {

/// Accumulated radio activity for one node.
struct NodeRadioStats {
  /// Milliseconds spent transmitting, per message class (first attempts).
  std::array<double, kNumMessageClasses> transmit_ms_by_class{};
  /// Milliseconds spent on retransmission attempts (all classes).
  double retransmit_ms = 0.0;
  /// Successful first-attempt transmissions per class.
  std::array<std::uint64_t, kNumMessageClasses> sent_by_class{};
  /// Retransmission attempts.
  std::uint64_t retransmissions = 0;
  /// Messages abandoned after exhausting retries.
  std::uint64_t drops = 0;
  /// Messages delivered to this node (addressed to it).
  std::uint64_t received = 0;
  /// Milliseconds this node spent in sleep mode.
  double sleep_ms = 0.0;
  /// Times this node went to sleep.
  std::uint64_t sleep_transitions = 0;
  /// Deliveries to this node (as receiver) lost on a lossy link.
  std::uint64_t link_drops = 0;
  /// Transient outages this node began, and recovered from.
  std::uint64_t outages = 0;
  std::uint64_t recoveries = 0;

  /// Total transmit milliseconds including retransmissions.
  double TotalTransmitMs() const;
};

/// The ledger for a whole deployment.
class RadioLedger {
 public:
  explicit RadioLedger(std::size_t num_nodes);

  /// Charges one transmission attempt of `duration_ms` to `node`.
  /// `is_retransmission` routes the charge to the retransmission bucket.
  void ChargeTransmit(NodeId node, MessageClass cls, double duration_ms,
                      bool is_retransmission);

  /// Records a message abandoned after exhausting retries.
  void CountDrop(NodeId node);

  /// Records a delivery addressed to `node`.
  void CountReceive(NodeId node);

  /// Adds time spent asleep (spans may not overlap for one node).
  void AddSleep(NodeId node, double duration_ms);

  /// Records `node` going to sleep.
  void CountSleepTransition(NodeId node);

  /// Records a delivery to `node` lost on a lossy link.
  void CountLinkDrop(NodeId node);

  /// Records the start and the end of a transient outage of `node`.
  void CountOutage(NodeId node);
  void CountRecovery(NodeId node);

  /// Stats of one node.
  const NodeRadioStats& StatsOf(NodeId node) const;

  /// Number of nodes tracked.
  std::size_t size() const { return stats_.size(); }

  /// The paper's metric: mean over *sensor* nodes of
  /// (total transmit time / elapsed), as a fraction in [0, 1].  The base
  /// station is excluded when `include_base_station` is false (its mains
  /// power is not the constrained resource).
  double AverageTransmissionTime(SimDuration elapsed,
                                 bool include_base_station = false) const;

  /// Sum over nodes of total transmit milliseconds.
  double TotalTransmitMs() const;

  /// Sum over nodes of first-attempt message counts for `cls`.
  std::uint64_t TotalSent(MessageClass cls) const;

  /// Sum of retransmission attempts over all nodes.
  std::uint64_t TotalRetransmissions() const;

  /// Total messages sent (first attempts, all classes).
  std::uint64_t TotalMessages() const;

  /// Sum of link-loss drops over all receivers.
  std::uint64_t TotalLinkDrops() const;

  /// Resets every counter (used between measurement windows).
  void Reset();

 private:
  std::vector<NodeRadioStats> stats_;
};

}  // namespace ttmqo
