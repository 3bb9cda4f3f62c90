// Radio timing and reachability parameters.
//
// The cost model prices one transmission at `C_start + C_trans * len`
// (Section 3.1.2): a fixed startup component (preamble, MAC backoff) plus a
// per-byte component given by the radio's data rate.  Defaults model a
// Mica2-class 38.4 kbps radio with the paper's 50 ft transmission radius.
#pragma once

#include <cstddef>

#include "util/check.h"

namespace ttmqo {

/// Timing/geometry parameters of the radio.
struct RadioParams {
  /// Transmission startup cost C_start, in milliseconds.
  double start_ms = 8.0;

  /// Per-byte transmission cost C_trans, in milliseconds.  38.4 kbps
  /// (Mica2) gives 8 bits / 38.4 kbps ≈ 0.2083 ms per byte.
  double per_byte_ms = 8.0 / 38.4;

  /// Fixed radio/AM header bytes prepended to every payload.
  std::size_t header_bytes = 7;

  /// Transmission radius in feet (Section 4.1 uses 50 ft).
  double range_feet = 50.0;

  /// Milliseconds one transmission of `payload_bytes` occupies the air.
  double TransmitDurationMs(std::size_t payload_bytes) const {
    return start_ms +
           per_byte_ms * static_cast<double>(header_bytes + payload_bytes);
  }
};

/// Parameters of the optional contention/loss model.  With `collision_prob`
/// = 0 the channel is lossless, matching the paper's stated assumption; the
/// experiments additionally count retransmissions, which this model
/// produces when enabled.  The retry budget and backoff are constants of
/// `network.cc`.
struct ChannelParams {
  /// Probability that one concurrently in-flight interfering transmission
  /// corrupts a send (losses compose as 1-(1-p)^k for k interferers).
  double collision_prob = 0.0;

  void Validate() const {
    CheckArg(collision_prob >= 0.0 && collision_prob < 1.0,
             "ChannelParams: collision_prob must be in [0,1)");
  }
};

}  // namespace ttmqo
