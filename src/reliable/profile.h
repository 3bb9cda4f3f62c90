// Named reliability profiles of the transport layer.
//
// Every binary exposes two operating points as `--reliability=`:
//
//   off — the paper's best-effort tier exactly as seeded: no liveness
//         tracking, no re-floods, no acks.  Byte-identical to the
//         pre-reliability goldens.
//   arq — the full reliability protocol: per-hop ack/timeout
//         retransmission with deterministic backoff, flapping-node
//         quarantine, base-station epoch accounting with NACK-driven gap
//         repair and coverage-annotated partial results, plus the tier-2
//         engine's overheard-traffic liveness failover and dissemination
//         re-floods.
//
// Duplicate suppression at relays and the base station is part of tier 2
// itself and runs under both.
#pragma once

#include <string>
#include <string_view>

namespace ttmqo {

/// Which reliability machinery a run enables.
enum class ReliabilityProfile {
  kOff,
  kArq,
};

/// Display name ("off" / "arq").
std::string_view ReliabilityProfileName(ReliabilityProfile profile);

/// Parses a profile name; throws `std::invalid_argument` on anything but
/// off|arq.
ReliabilityProfile ParseReliabilityProfile(const std::string& name);

}  // namespace ttmqo
