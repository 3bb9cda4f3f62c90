// Unit tests for the ARQ transport (reliable/arq.h): backoff arithmetic,
// per-(sender, seq) retry jitters, ack/retransmit bookkeeping over a
// lossless grid, deadline budgets, and the quarantine hysteresis that
// makes flapping neighbors progressively more expensive to re-trust.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "reliable/arq.h"
#include "reliable/profile.h"
#include "util/rng.h"

namespace ttmqo {
namespace {

struct ProbePayload final : TaggedPayload<ProbePayload> {
  explicit ProbePayload(int v) : value(v) {}
  int value;
};

ArqOptions TestOptions() {
  ArqOptions options;
  options.enabled = true;
  options.seed = 99;
  return options;
}

// ---------------------------------------------------------------------------
// Backoff arithmetic.

TEST(ArqRtoTest, DoublesPerAttemptAndCapsWithoutJitter) {
  EXPECT_EQ(ArqBackoff(0), 256);
  EXPECT_EQ(ArqBackoff(1), 512);
  EXPECT_EQ(ArqBackoff(2), 1024);
  EXPECT_EQ(ArqBackoff(3), 2048);
  EXPECT_EQ(ArqBackoff(4), 4096);
  EXPECT_EQ(ArqBackoff(5), 4096) << "growth must cap at the max RTO";
  EXPECT_EQ(ArqBackoff(30), 4096)
      << "large exponents must not overflow past the cap";
}

TEST(ArqRtoTest, JitterIsBoundedAndDeterministicInTheStream) {
  constexpr int kJitterMs = 32;
  const ArqOptions options = TestOptions();
  EXPECT_EQ(ArqJitters(options.seed, 7, 3), ArqJitters(options.seed, 7, 3))
      << "same (seed, sender, seq) must give the same retry schedule";
  // Over many sends every jitter stays in [0, 32] and both ends occur.
  std::vector<int> seen(kJitterMs + 1, 0);
  for (NodeId sender = 0; sender < 16; ++sender) {
    for (std::uint32_t seq = 0; seq < 64; ++seq) {
      for (const std::uint8_t jitter : ArqJitters(options.seed, sender, seq)) {
        ASSERT_LE(jitter, kJitterMs);
        ++seen[jitter];
      }
    }
  }
  EXPECT_GT(seen.front(), 0);
  EXPECT_GT(seen.back(), 0);
}

TEST(ArqJitterRngTest, StreamsAreIndependentPerSenderAndSeq) {
  // Different (sender, seq) pairs must draw different jitter so retry
  // bursts de-synchronize; equal pairs must collide exactly.
  EXPECT_EQ(ArqJitters(42, 3, 1), ArqJitters(42, 3, 1));
  EXPECT_NE(ArqJitters(42, 3, 1), ArqJitters(42, 3, 2));
  EXPECT_NE(ArqJitters(42, 3, 1), ArqJitters(42, 4, 1));
  // The jitters are the first four draws in [0, 32] of the seed's fork at
  // salt (sender, seq).
  Rng forked = Rng(42).Fork((std::uint64_t{3} << 32) | 1);
  ArqJitterMs expected;
  for (std::uint8_t& jitter : expected) {
    jitter = static_cast<std::uint8_t>(forked.UniformInt(0, 32));
  }
  EXPECT_EQ(ArqJitters(42, 3, 1), expected);
}

// ---------------------------------------------------------------------------
// Transport behavior on a small lossless grid.

class ArqTransportTest : public ::testing::Test {
 protected:
  ArqTransportTest()
      : topology_(Topology::Grid(3)),
        network_(topology_, RadioParams{}, ChannelParams{}, 11),
        arq_(network_, TestOptions()),
        delivered_(topology_.size()) {
    for (NodeId n = 0; n < topology_.size(); ++n) {
      arq_.Attach(n, [this, n](const Message& msg, bool addressed) {
        if (addressed) delivered_[n].push_back(msg);
      });
    }
    arq_.SetGiveUpHook([this](const ArqTransport::GiveUpInfo& info) {
      give_ups_.push_back(info);
    });
    arq_.SetQuarantineHook([this](NodeId self, NodeId neighbor,
                                  SimTime until) {
      quarantine_spans_.push_back(until - network_.sim().Now());
      (void)self;
      (void)neighbor;
    });
  }

  Message Probe(NodeId from, std::vector<NodeId> to, int value) {
    Message msg;
    msg.cls = MessageClass::kResult;
    msg.mode = to.size() == 1 ? AddressMode::kUnicast
                              : AddressMode::kMulticast;
    msg.sender = from;
    msg.destinations.assign(to.begin(), to.end());
    msg.payload_bytes = 8;
    msg.payload = std::make_shared<ProbePayload>(value);
    return msg;
  }

  Topology topology_;
  Network network_;
  ArqTransport arq_;
  std::vector<std::vector<Message>> delivered_;
  std::vector<ArqTransport::GiveUpInfo> give_ups_;
  std::vector<SimDuration> quarantine_spans_;
};

TEST_F(ArqTransportTest, LosslessUnicastDeliversOnceWithoutRetries) {
  arq_.Send(Probe(4, {1}, 17), /*deadline=*/1'000'000);
  network_.sim().RunUntil(20'000);

  ASSERT_EQ(delivered_[1].size(), 1u);
  // The receiver sees the reconstructed application message, not the
  // ARQ wrapper.
  const auto* probe =
      dynamic_cast<const ProbePayload*>(delivered_[1][0].payload.get());
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->value, 17);
  // A payload defined outside the engines has a tag of its own, so no
  // engine accessor ever claims it.
  EXPECT_EQ(PayloadAs<ArqDataPayload>(probe), nullptr);
  EXPECT_EQ(delivered_[1][0].payload_bytes, 8u);

  EXPECT_EQ(arq_.sends(), 1u);
  EXPECT_EQ(arq_.retransmits(), 0u) << "the ack must cancel the timer";
  EXPECT_EQ(arq_.acks_sent(), 1u);
  EXPECT_EQ(arq_.duplicates_dropped(), 0u);
  EXPECT_EQ(arq_.give_ups(), 0u);
  EXPECT_TRUE(give_ups_.empty());
}

TEST_F(ArqTransportTest, MulticastRetransmitsOnlyToTheSilentSubset) {
  network_.SetDown(3);  // silent outage: receives nothing, sends nothing
  arq_.Send(Probe(4, {1, 3}, 5), /*deadline=*/1'000'000);
  network_.sim().RunUntil(60'000);

  // The live destination got exactly one copy despite the retries (they
  // were addressed to node 3 only), the dead one struck out.
  EXPECT_EQ(delivered_[1].size(), 1u);
  EXPECT_TRUE(delivered_[3].empty());
  EXPECT_EQ(arq_.retransmits(), 3u) << "4 attempts per hop mean 3 retries";
  EXPECT_EQ(arq_.duplicates_dropped(), 0u)
      << "retries must re-address the silent subset, not every destination";
  ASSERT_EQ(give_ups_.size(), 1u);
  EXPECT_EQ(give_ups_[0].sender, 4);
  EXPECT_EQ(give_ups_[0].unacked, (std::vector<NodeId>{3}));
  const auto* probe =
      dynamic_cast<const ProbePayload*>(give_ups_[0].inner.get());
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->value, 5) << "the hook must hand back the inner payload";
}

TEST_F(ArqTransportTest, DeadlineCutsTheRetryBudgetShort) {
  network_.SetDown(1);
  // The deadline passes before the first timeout fires, so the slot gives
  // up without spending any of its retransmissions.
  arq_.Send(Probe(4, {1}, 9), /*deadline=*/network_.sim().Now() + 100);
  network_.sim().RunUntil(20'000);

  EXPECT_EQ(arq_.give_ups(), 1u);
  EXPECT_EQ(arq_.retransmits(), 0u);
  ASSERT_EQ(give_ups_.size(), 1u);
  EXPECT_EQ(give_ups_[0].unacked, (std::vector<NodeId>{1}));
}

TEST_F(ArqTransportTest, RetriesWaitTheBackoffPlusTheSendsOwnJitter) {
  // Node 1 never acks; node 5 overhears every copy node 4 sends, each one
  // transmit time after it starts on an idle radio.
  network_.SetDown(1);
  std::vector<SimTime> overheard;
  arq_.Attach(5, [&](const Message& msg, bool addressed) {
    if (!addressed && msg.sender == 4) {
      overheard.push_back(network_.sim().Now());
    }
  });
  std::vector<SimTime> gave_up;
  arq_.SetGiveUpHook([&](const ArqTransport::GiveUpInfo&) {
    gave_up.push_back(network_.sim().Now());
  });
  arq_.Send(Probe(4, {1}, 3), /*deadline=*/1'000'000);
  network_.sim().RunUntil(60'000);

  // Timeout k waits ArqBackoff(k) plus entry k of the send's jitters.
  const ArqJitterMs jitter = ArqJitters(TestOptions().seed, 4, /*seq=*/0);
  ASSERT_EQ(overheard.size(), 4u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(overheard[k + 1] - overheard[k],
              ArqBackoff(static_cast<int>(k)) + jitter[k])
        << "timeout " << k;
  }
  ASSERT_EQ(gave_up.size(), 1u);
  const SimTime last_start = overheard[3] - overheard[0];
  EXPECT_EQ(gave_up[0], last_start + ArqBackoff(3) + jitter[3]);
}

TEST_F(ArqTransportTest, RetrySchedulesAreDeterministicAcrossTransports) {
  // Two transports over identical networks must time out on exactly the
  // same schedule: the jitter is a pure function of (seed, sender, seq).
  Network other(topology_, RadioParams{}, ChannelParams{}, 11);
  ArqTransport arq2(other, TestOptions());
  for (NodeId n = 0; n < topology_.size(); ++n) {
    arq2.Attach(n, [](const Message&, bool) {});
  }
  network_.SetDown(1);
  other.SetDown(1);

  std::vector<SimTime> first, second;
  arq_.SetGiveUpHook([&](const ArqTransport::GiveUpInfo&) {
    first.push_back(network_.sim().Now());
  });
  arq2.SetGiveUpHook([&](const ArqTransport::GiveUpInfo&) {
    second.push_back(other.sim().Now());
  });
  arq_.Send(Probe(4, {1}, 1), 1'000'000);
  arq2.Send(Probe(4, {1}, 1), 1'000'000);
  network_.sim().RunUntil(60'000);
  other.sim().RunUntil(60'000);

  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first, second);
}

TEST_F(ArqTransportTest, QuarantineBackoffDoublesThenHysteresisHalves) {
  // The transport's first quarantine duration.
  constexpr SimDuration kQuarantineBaseMs = 4096;
  network_.SetDown(3);

  // Two give-ups (= the quarantine threshold's strikes) trigger the first
  // quarantine; sends are spaced far enough apart that each budget is
  // fully spent before the next begins.
  auto strike_out = [&](SimTime at, int value) {
    network_.sim().ScheduleAt(at, [this, value] {
      arq_.Send(Probe(4, {3}, value), /*deadline=*/1'000'000);
    });
  };
  strike_out(0, 1);
  strike_out(8'192, 2);
  // Stop inside the quarantine window (give-up 2 lands around t=12.2s,
  // the quarantine holds for 4096 ms after it).
  network_.sim().RunUntil(14'000);

  ASSERT_EQ(quarantine_spans_.size(), 1u);
  EXPECT_EQ(quarantine_spans_[0], kQuarantineBaseMs);
  EXPECT_TRUE(arq_.IsQuarantined(4, 3));
  EXPECT_FALSE(arq_.IsQuarantined(3, 4)) << "quarantine is directional";

  // A second pair of give-ups doubles the backoff (4096 -> 8192): the
  // neighbor flapped once already, so it is distrusted for longer.
  strike_out(24'576, 3);
  strike_out(32'768, 4);
  network_.sim().RunUntil(45'056);
  ASSERT_EQ(quarantine_spans_.size(), 2u);
  EXPECT_EQ(quarantine_spans_[1], 2 * kQuarantineBaseMs);

  // Recovery: one good ack halves the backoff instead of erasing it.  The
  // next quarantine therefore doubles from 4096 again, not from 8192.
  network_.sim().ScheduleAt(45'056, [this] { network_.Recover(3); });
  strike_out(49'152, 5);
  network_.sim().RunUntil(57'344);
  EXPECT_EQ(delivered_[3].size(), 1u);
  EXPECT_FALSE(arq_.IsQuarantined(4, 3)) << "a good ack lifts quarantine";

  network_.sim().ScheduleAt(57'344, [this] { network_.SetDown(3); });
  strike_out(61'440, 6);
  strike_out(69'632, 7);
  network_.sim().RunUntil(81'920);
  ASSERT_EQ(quarantine_spans_.size(), 3u);
  EXPECT_EQ(quarantine_spans_[2], 2 * kQuarantineBaseMs)
      << "hysteresis: the halved backoff doubles back to 8192, not 16384";

  // Quarantine expires on its own once the backoff elapses.
  network_.sim().RunUntil(200'000);
  EXPECT_FALSE(arq_.IsQuarantined(4, 3));
}

// ---------------------------------------------------------------------------
// Profile parsing.

TEST(ReliabilityProfileTest, NamesRoundTrip) {
  EXPECT_EQ(ParseReliabilityProfile("off"), ReliabilityProfile::kOff);
  EXPECT_EQ(ParseReliabilityProfile("arq"), ReliabilityProfile::kArq);
  EXPECT_EQ(ReliabilityProfileName(ReliabilityProfile::kOff), "off");
  EXPECT_EQ(ReliabilityProfileName(ReliabilityProfile::kArq), "arq");
  EXPECT_THROW(ParseReliabilityProfile("maximal"), std::invalid_argument);
  EXPECT_THROW(ParseReliabilityProfile("harden"), std::invalid_argument);
}

}  // namespace
}  // namespace ttmqo
