// Unit tests for the ARQ transport (reliable/arq.h): backoff arithmetic,
// per-(sender, seq) jitter streams, ack/retransmit bookkeeping over a
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

struct ProbePayload final : Payload {
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
  ArqOptions options = TestOptions();
  options.jitter_ms = 0;
  Rng rng(1);
  EXPECT_EQ(ArqRto(options, 0, rng), 256);
  EXPECT_EQ(ArqRto(options, 1, rng), 512);
  EXPECT_EQ(ArqRto(options, 2, rng), 1024);
  EXPECT_EQ(ArqRto(options, 3, rng), 2048);
  EXPECT_EQ(ArqRto(options, 4, rng), 4096);
  EXPECT_EQ(ArqRto(options, 5, rng), 4096) << "growth must cap at max_rto";
  EXPECT_EQ(ArqRto(options, 30, rng), 4096)
      << "large exponents must not overflow past the cap";
}

TEST(ArqRtoTest, JitterIsBoundedAndDeterministicInTheStream) {
  const ArqOptions options = TestOptions();
  Rng a = ArqJitterRng(options.seed, 7, 3);
  Rng b = ArqJitterRng(options.seed, 7, 3);
  for (int exponent = 0; exponent < 8; ++exponent) {
    const SimDuration first = ArqRto(options, exponent, a);
    const SimDuration second = ArqRto(options, exponent, b);
    EXPECT_EQ(first, second)
        << "same (seed, sender, seq) must give the same retry schedule";
    const SimDuration base =
        std::min(options.base_rto_ms << std::min(exponent, 20),
                 options.max_rto_ms);
    EXPECT_GE(first, base);
    EXPECT_LE(first, base + options.jitter_ms);
  }
}

TEST(ArqJitterRngTest, StreamsAreIndependentPerSenderAndSeq) {
  // Different (sender, seq) pairs must draw different jitter so retry
  // bursts de-synchronize; equal pairs must collide exactly.
  const auto draws = [](NodeId sender, std::uint32_t seq) {
    Rng rng = ArqJitterRng(42, sender, seq);
    std::vector<std::int64_t> out;
    for (int i = 0; i < 4; ++i) out.push_back(rng.UniformInt(0, 1 << 20));
    return out;
  };
  EXPECT_EQ(draws(3, 1), draws(3, 1));
  EXPECT_NE(draws(3, 1), draws(3, 2));
  EXPECT_NE(draws(3, 1), draws(4, 1));
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
    msg.destinations = std::move(to);
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
  // A payload defined outside the engines keeps the default kind, so no
  // engine accessor ever claims it.
  EXPECT_EQ(probe->kind(), PayloadKind::kOther);
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
  EXPECT_EQ(arq_.retransmits(), 3u) << "max_attempts=4 means 3 retries";
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
  const ArqOptions options = TestOptions();
  network_.SetDown(3);

  // Two give-ups (= quarantine_threshold strikes) trigger the first
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
  EXPECT_EQ(quarantine_spans_[0], options.quarantine_base_ms);
  EXPECT_TRUE(arq_.IsQuarantined(4, 3));
  EXPECT_FALSE(arq_.IsQuarantined(3, 4)) << "quarantine is directional";

  // A second pair of give-ups doubles the backoff (4096 -> 8192): the
  // neighbor flapped once already, so it is distrusted for longer.
  strike_out(24'576, 3);
  strike_out(32'768, 4);
  network_.sim().RunUntil(45'056);
  ASSERT_EQ(quarantine_spans_.size(), 2u);
  EXPECT_EQ(quarantine_spans_[1], 2 * options.quarantine_base_ms);

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
  EXPECT_EQ(quarantine_spans_[2], 2 * options.quarantine_base_ms)
      << "hysteresis: the halved backoff doubles back to 8192, not 16384";

  // Quarantine expires on its own once the backoff elapses.
  network_.sim().RunUntil(200'000);
  EXPECT_FALSE(arq_.IsQuarantined(4, 3));
}

// ---------------------------------------------------------------------------
// Profile parsing.

TEST(ReliabilityProfileTest, NamesRoundTrip) {
  EXPECT_EQ(ParseReliabilityProfile("off"), ReliabilityProfile::kOff);
  EXPECT_EQ(ParseReliabilityProfile("harden"), ReliabilityProfile::kHarden);
  EXPECT_EQ(ParseReliabilityProfile("arq"), ReliabilityProfile::kArq);
  EXPECT_EQ(ReliabilityProfileName(ReliabilityProfile::kOff), "off");
  EXPECT_EQ(ReliabilityProfileName(ReliabilityProfile::kHarden), "harden");
  EXPECT_EQ(ReliabilityProfileName(ReliabilityProfile::kArq), "arq");
  EXPECT_THROW(ParseReliabilityProfile("maximal"), std::invalid_argument);
}

}  // namespace
}  // namespace ttmqo
