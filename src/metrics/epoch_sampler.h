// Per-epoch time series of radio activity.
//
// The paper reports a single end-of-run scalar (average transmission time,
// Section 4.1); `EpochSampler` additionally snapshots the `RadioLedger`
// every simulated epoch and records the *delta* — per message class and per
// node — so a run yields a time series showing where inside the run each
// tier spends or saves transmissions.  The rows export as one JSON array,
// network-wide fields plus the per-node breakdown, which the metrics
// document embeds.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "net/network.h"

namespace ttmqo {

/// Radio activity during one sampling epoch (deltas, not cumulative).
struct EpochRow {
  /// Zero-based epoch index.
  std::int64_t epoch = 0;
  /// End of the epoch window (simulation ms).
  SimTime time = 0;
  /// Total transmit milliseconds (first attempts, all nodes).
  double tx_ms = 0.0;
  /// Retransmission-attempt milliseconds.
  double retx_ms = 0.0;
  /// Sleep milliseconds booked to the ledger during the window.
  double sleep_ms = 0.0;
  /// First-attempt message counts, indexed by `MessageClass`.
  std::array<std::uint64_t, kNumMessageClasses> sent_by_class{};
  std::uint64_t retransmissions = 0;
  std::uint64_t drops = 0;
  /// Per-node transmit milliseconds (incl. retransmissions) this epoch.
  std::vector<double> node_tx_ms;
};

/// Samples a network's ledger on a fixed simulated period.
class EpochSampler {
 public:
  /// Begins sampling `network` every `period_ms` (default: the minimum
  /// TinyDB epoch).  Must be called before the simulation runs; the sampler
  /// must outlive the run.  May be called once per sampler.
  void Start(Network& network, SimDuration period_ms = kMinEpochDurationMs);

  /// Collected rows, one per completed epoch.
  const std::vector<EpochRow>& rows() const { return rows_; }

  /// The sampling period (0 before `Start`).
  SimDuration period_ms() const { return period_ms_; }

  /// The rows as one JSON array, one object per epoch including the
  /// per-node breakdown (for embedding in a larger document).
  void WriteJsonArray(std::ostream& out) const;

 private:
  struct Snapshot {
    double tx_ms = 0.0;
    double retx_ms = 0.0;
    double sleep_ms = 0.0;
    std::array<std::uint64_t, kNumMessageClasses> sent_by_class{};
    std::uint64_t retransmissions = 0;
    std::uint64_t drops = 0;
    std::vector<double> node_tx_ms;
  };

  void Sample(Network& network);
  void Tick();
  static Snapshot Capture(const RadioLedger& ledger);

  Network* network_ = nullptr;
  SimDuration period_ms_ = 0;
  Snapshot previous_;
  std::vector<EpochRow> rows_;
};

}  // namespace ttmqo
