#include "net/ledger.h"

#include <numeric>

namespace ttmqo {

double NodeRadioStats::TotalTransmitMs() const {
  double total = retransmit_ms;
  for (double ms : transmit_ms_by_class) total += ms;
  return total;
}

RadioLedger::RadioLedger(std::size_t num_nodes) : stats_(num_nodes) {
  CheckArg(num_nodes > 0, "RadioLedger: need at least one node");
}

void RadioLedger::ChargeTransmit(NodeId node, MessageClass cls,
                                 double duration_ms, bool is_retransmission) {
  NodeRadioStats& s = stats_.at(node);
  if (is_retransmission) {
    s.retransmit_ms += duration_ms;
    ++s.retransmissions;
  } else {
    s.transmit_ms_by_class[static_cast<std::size_t>(cls)] += duration_ms;
    ++s.sent_by_class[static_cast<std::size_t>(cls)];
  }
}

void RadioLedger::CountDrop(NodeId node) { ++stats_.at(node).drops; }

void RadioLedger::CountReceive(NodeId node) { ++stats_.at(node).received; }

void RadioLedger::AddSleep(NodeId node, double duration_ms) {
  stats_.at(node).sleep_ms += duration_ms;
}

void RadioLedger::CountSleepTransition(NodeId node) {
  ++stats_.at(node).sleep_transitions;
}

void RadioLedger::CountLinkDrop(NodeId node) { ++stats_.at(node).link_drops; }

void RadioLedger::CountOutage(NodeId node) { ++stats_.at(node).outages; }

void RadioLedger::CountRecovery(NodeId node) { ++stats_.at(node).recoveries; }

const NodeRadioStats& RadioLedger::StatsOf(NodeId node) const {
  return stats_.at(node);
}

double RadioLedger::AverageTransmissionTime(SimDuration elapsed,
                                            bool include_base_station) const {
  CheckArg(elapsed > 0, "AverageTransmissionTime: elapsed must be positive");
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    if (!include_base_station && i == kBaseStationId) continue;
    sum += stats_[i].TotalTransmitMs() / static_cast<double>(elapsed);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

double RadioLedger::TotalTransmitMs() const {
  double total = 0.0;
  for (const NodeRadioStats& s : stats_) total += s.TotalTransmitMs();
  return total;
}

std::uint64_t RadioLedger::TotalSent(MessageClass cls) const {
  std::uint64_t total = 0;
  for (const NodeRadioStats& s : stats_) {
    total += s.sent_by_class[static_cast<std::size_t>(cls)];
  }
  return total;
}

std::uint64_t RadioLedger::TotalRetransmissions() const {
  std::uint64_t total = 0;
  for (const NodeRadioStats& s : stats_) total += s.retransmissions;
  return total;
}

std::uint64_t RadioLedger::TotalMessages() const {
  std::uint64_t total = 0;
  for (const NodeRadioStats& s : stats_) {
    for (std::uint64_t n : s.sent_by_class) total += n;
  }
  return total;
}

std::uint64_t RadioLedger::TotalLinkDrops() const {
  std::uint64_t total = 0;
  for (const NodeRadioStats& s : stats_) total += s.link_drops;
  return total;
}

void RadioLedger::Reset() {
  for (NodeRadioStats& s : stats_) s = NodeRadioStats{};
}

}  // namespace ttmqo
