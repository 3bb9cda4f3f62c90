// Per-hop ARQ transport: ack / timeout / retransmit with deterministic
// backoff, bounded budgets, and flapping-node quarantine.
//
// `ArqTransport` sits between an engine and `Network`.  The engine attaches
// its receivers through the transport and routes unicast/multicast sends
// through `Send`; broadcasts and foreign payloads pass through untouched.
// Each reliable send wraps the payload in an `ArqDataPayload` carrying a
// per-sender sequence number.  Addressed receivers ack every copy (acks are
// `MessageClass::kControl`), deduplicate by (sender, seq) inside a sliding
// window, and hand exactly one copy up.  The sender keeps the message in a
// pooled pending slot and retransmits to the not-yet-acked subset on
// timeout, with RTO = base * 2^attempt + jitter, where the jitter stream is
// forked from (transport seed, sender, seq) — so retry schedules depend
// only on the run configuration, never on thread scheduling, and sweep
// reports stay byte-identical across `--jobs` counts.
//
// Budgets are twofold: a per-hop attempt cap and a hard deadline (the
// sender's epoch cutoff) after which the slot gives up.  Give-ups strike
// the destination; enough consecutive strikes quarantine the neighbor with
// a doubling, bounded backoff whose memory survives recovery (hysteresis:
// a flapping node is re-trusted more slowly each time).  The engine feeds
// quarantines into its parent blacklist and may re-route the surviving
// payload through the give-up hook.
//
// Steady state schedules no allocating events: retry timers are small
// inline captures in the PR-5 pooled slab, pending slots and ack payloads
// are recycled through free lists.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/network.h"
#include "util/rng.h"
#include "util/time.h"

namespace ttmqo {

/// Serialized overhead of the ARQ wrapper (sequence number + flags).
inline constexpr std::size_t kArqHeaderBytes = 2;

/// Serialized size of an ack (sequence number + sender id).
inline constexpr std::size_t kArqAckBytes = 3;

/// Tuning of the ARQ transport.  `enabled` false means the transport is
/// never constructed and the engine talks to the network directly — the
/// profile-off fast path.
struct ArqOptions {
  bool enabled = false;
  /// Seed of the jitter streams (forked per (sender, seq)).  The runner
  /// derives it from the run's master seed.
  std::uint64_t seed = 0;
  /// First retransmit timeout; doubled per attempt.
  SimDuration base_rto_ms = 256;
  /// RTO growth cap.
  SimDuration max_rto_ms = 4096;
  /// Deterministic per-(sender, seq) jitter added to every RTO, in
  /// [0, jitter_ms] — de-synchronizes retry bursts.
  SimDuration jitter_ms = 32;
  /// Transmissions per hop before giving up (first send included).
  int max_attempts = 4;
  /// Give-up strikes against one neighbor before it is quarantined.
  int quarantine_threshold = 2;
  /// First quarantine duration; doubled per quarantine (hysteresis).
  SimDuration quarantine_base_ms = 4096;
  /// Quarantine backoff cap.
  SimDuration quarantine_max_ms = 32768;
  /// Receiver-side duplicate-detection window per (receiver, sender):
  /// sequence numbers more than this far behind the newest seen are
  /// forgotten (bounded memory for long-lived runs).
  std::uint32_t dedup_window = 1024;
};

/// The reliable wrapper around an application payload.
struct ArqDataPayload final : Payload {
  static constexpr PayloadKind kKind = PayloadKind::kArqData;
  ArqDataPayload(std::uint32_t s, std::shared_ptr<const Payload> p)
      : Payload(kKind), seq(s), inner(std::move(p)) {}
  std::uint32_t seq;
  std::shared_ptr<const Payload> inner;
};

/// Acknowledgement of one (sender, seq); travels as kControl.
struct ArqAckPayload final : Payload {
  static constexpr PayloadKind kKind = PayloadKind::kArqAck;
  explicit ArqAckPayload(std::uint32_t s) : Payload(kKind), seq(s) {}
  std::uint32_t seq;
};

/// The RTO of retry number `backoff_exponent` (0 for the first timeout):
/// min(base * 2^exponent, max) + jitter drawn from `rng`.  Exposed for the
/// backoff-arithmetic unit tests.
SimDuration ArqRto(const ArqOptions& options, int backoff_exponent, Rng& rng);

/// The jitter stream of one (sender, seq) pair under `seed` — every retry
/// schedule is a pure function of these three values.
Rng ArqJitterRng(std::uint64_t seed, NodeId sender, std::uint32_t seq);

class ArqTransport {
 public:
  /// A reliable send that exhausted its budget.  `inner` is the original
  /// application payload; `unacked` the destinations never heard from.
  struct GiveUpInfo {
    MessageClass cls = MessageClass::kResult;
    NodeId sender = 0;
    std::shared_ptr<const Payload> inner;
    std::size_t inner_bytes = 0;
    std::vector<NodeId> unacked;
    SimTime deadline = 0;
    /// How many times this payload has already been re-routed after a
    /// give-up (the engine caps re-route chains).
    int reroutes = 0;
  };
  using GiveUpHook = std::function<void(const GiveUpInfo&)>;
  using QuarantineHook =
      std::function<void(NodeId self, NodeId neighbor, SimTime until)>;

  /// `network` must outlive the transport.
  ArqTransport(Network& network, ArqOptions options);

  ArqTransport(const ArqTransport&) = delete;
  ArqTransport& operator=(const ArqTransport&) = delete;

  /// Installs the transport between `node`'s radio and `upper`: data
  /// wrappers are unwrapped/acked/deduplicated, acks consume pending
  /// slots, everything else passes through unchanged.
  void Attach(NodeId node, Network::Receiver upper);

  /// Reliably sends a unicast/multicast `msg` (any class), retrying until
  /// every destination acked, the attempt budget is spent, or `deadline`
  /// passes.  `reroutes` threads the engine's re-route count through to
  /// the give-up hook.
  void Send(Message msg, SimTime deadline, int reroutes = 0);

  /// True while `neighbor` is quarantined from `self`'s point of view.
  bool IsQuarantined(NodeId self, NodeId neighbor) const;

  /// Called when a send exhausts its budget (after the strike accounting).
  void SetGiveUpHook(GiveUpHook hook) { give_up_ = std::move(hook); }

  /// Called when a neighbor enters quarantine.
  void SetQuarantineHook(QuarantineHook hook) {
    quarantine_hook_ = std::move(hook);
  }

  // --- statistics -------------------------------------------------------
  std::uint64_t sends() const { return sends_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  std::uint64_t give_ups() const { return give_ups_; }
  std::uint64_t quarantines() const { return quarantines_; }

 private:
  /// One in-flight reliable send, recycled through a free list.
  struct PendingSlot {
    Message msg;
    std::vector<NodeId> unacked;
    SimTime deadline = 0;
    std::uint32_t seq = 0;
    int attempt = 1;
    int reroutes = 0;
    /// Bumped on release so stale timeout events no-op.
    std::uint32_t generation = 0;
    Rng rng{0};
    bool in_use = false;
  };

  /// Receiver-side duplicate detection for one (receiver, sender) pair.
  struct SeenWindow {
    std::set<std::uint32_t> seqs;
    std::uint32_t max_seen = 0;
  };

  /// Give-up strikes and quarantine state of one neighbor.  `backoff`
  /// persists across recoveries — the hysteresis that makes repeated
  /// flapping progressively more expensive.
  struct Quarantine {
    int strikes = 0;
    SimDuration backoff = 0;
    SimTime until = 0;
  };

  void OnReceive(NodeId self, const Message& msg, bool addressed);
  void OnTimeout(std::uint32_t slot, std::uint32_t generation);
  void ScheduleTimeout(std::uint32_t slot);
  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t slot);
  void SendAck(NodeId self, NodeId to, std::uint32_t seq);
  void Strike(NodeId self, NodeId neighbor);
  void ClearStrikes(NodeId self, NodeId neighbor);

  Network& network_;
  ArqOptions options_;
  std::vector<Network::Receiver> upper_;
  std::vector<std::uint32_t> next_seq_;
  /// Per sender: live seq -> pending slot index.
  std::vector<std::map<std::uint32_t, std::uint32_t>> live_;
  std::vector<PendingSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Per receiver: dedup window per sender.
  std::vector<std::map<NodeId, SeenWindow>> seen_;
  /// Per node: quarantine state per neighbor.
  std::vector<std::map<NodeId, Quarantine>> quarantine_;
  /// Recycled ack payloads (reused when the network released its copy).
  std::vector<std::shared_ptr<ArqAckPayload>> ack_pool_;
  GiveUpHook give_up_;
  QuarantineHook quarantine_hook_;
  std::uint64_t sends_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t give_ups_ = 0;
  std::uint64_t quarantines_ = 0;
};

}  // namespace ttmqo
