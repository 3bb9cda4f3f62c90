#include "metrics/epoch_sampler.h"

#include "util/check.h"

namespace ttmqo {

void EpochSampler::Start(Network& network, SimDuration period_ms) {
  CheckArg(period_ms > 0, "EpochSampler: period must be positive");
  CheckArg(period_ms_ == 0, "EpochSampler: already started");
  period_ms_ = period_ms;
  network_ = &network;
  previous_ = Capture(network.ledger());
  // The tick reschedules itself through the pooled event slab; the [this]
  // capture stays inline, so sampling never allocates per epoch.
  network.sim().ScheduleAfter(period_ms_, [this] { Tick(); });
}

void EpochSampler::Tick() {
  Sample(*network_);
  network_->sim().ScheduleAfter(period_ms_, [this] { Tick(); });
}

EpochSampler::Snapshot EpochSampler::Capture(const RadioLedger& ledger) {
  Snapshot snap;
  snap.node_tx_ms.resize(ledger.size(), 0.0);
  for (NodeId node = 0; node < ledger.size(); ++node) {
    const NodeRadioStats& stats = ledger.StatsOf(node);
    snap.node_tx_ms[node] = stats.TotalTransmitMs();
    snap.retx_ms += stats.retransmit_ms;
    snap.sleep_ms += stats.sleep_ms;
    snap.retransmissions += stats.retransmissions;
    snap.drops += stats.drops;
    for (std::size_t cls = 0; cls < kNumMessageClasses; ++cls) {
      snap.tx_ms += stats.transmit_ms_by_class[cls];
      snap.sent_by_class[cls] += stats.sent_by_class[cls];
    }
  }
  return snap;
}

void EpochSampler::Sample(Network& network) {
  Snapshot now = Capture(network.ledger());
  EpochRow row;
  row.epoch = static_cast<std::int64_t>(rows_.size());
  row.time = network.sim().Now();
  row.tx_ms = now.tx_ms - previous_.tx_ms;
  row.retx_ms = now.retx_ms - previous_.retx_ms;
  row.sleep_ms = now.sleep_ms - previous_.sleep_ms;
  row.retransmissions = now.retransmissions - previous_.retransmissions;
  row.drops = now.drops - previous_.drops;
  for (std::size_t cls = 0; cls < kNumMessageClasses; ++cls) {
    row.sent_by_class[cls] =
        now.sent_by_class[cls] - previous_.sent_by_class[cls];
  }
  row.node_tx_ms.resize(now.node_tx_ms.size(), 0.0);
  for (std::size_t i = 0; i < now.node_tx_ms.size(); ++i) {
    const double prev =
        i < previous_.node_tx_ms.size() ? previous_.node_tx_ms[i] : 0.0;
    row.node_tx_ms[i] = now.node_tx_ms[i] - prev;
  }
  rows_.push_back(std::move(row));
  previous_ = std::move(now);
}

void EpochSampler::WriteJsonArray(std::ostream& out) const {
  out << '[';
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const EpochRow& row = rows_[r];
    if (r > 0) out << ',';
    out << "{\"epoch\":" << row.epoch << ",\"t\":" << row.time
        << ",\"tx_ms\":" << row.tx_ms << ",\"retx_ms\":" << row.retx_ms
        << ",\"sleep_ms\":" << row.sleep_ms;
    for (std::size_t cls = 0; cls < kNumMessageClasses; ++cls) {
      out << ",\"" << MessageClassName(static_cast<MessageClass>(cls))
          << "_msgs\":" << row.sent_by_class[cls];
    }
    out << ",\"retransmissions\":" << row.retransmissions
        << ",\"drops\":" << row.drops << ",\"node_tx_ms\":[";
    for (std::size_t i = 0; i < row.node_tx_ms.size(); ++i) {
      if (i > 0) out << ',';
      out << row.node_tx_ms[i];
    }
    out << "]}";
  }
  out << ']';
}

}  // namespace ttmqo
