// Quickstart: stand up a simulated sensor network, run two queries under
// the full two-tier optimizer, and print the answers that reach the base
// station.
//
//   $ quickstart
//
// Walks through the core API: Topology -> Network -> FieldModel ->
// TtmqoEngine -> ResultSink.
#include <cstdio>

#include "core/ttmqo_engine.h"
#include "metrics/run_summary.h"
#include "net/topology.h"
#include "query/parser.h"
#include "sensing/field_model.h"

namespace {

// Results arrive epoch by epoch through a ResultSink.
class PrintingSink final : public ttmqo::ResultSink {
 public:
  void OnResult(ttmqo::EpochResult result) override {
    std::printf("  [%6.1fs] %s\n",
                static_cast<double>(result.epoch_time) / 1000.0,
                result.ToString().c_str());
  }
};

}  // namespace

int main() {
  using namespace ttmqo;

  // 1. A 4x4 grid of motes, 20 ft apart, 50 ft radio range — the paper's
  //    deployment.  Node 0 is the base station.
  const Topology topology = Topology::Grid(4);

  // 2. The radio network: default Mica2-class timing, lossless channel.
  Network network(topology, RadioParams{}, ChannelParams{}, /*seed=*/42);

  // 3. A synthetic environment with spatially/temporally correlated light
  //    and temperature readings.
  const CorrelatedFieldModel field(/*seed=*/7);

  // 4. The engine: both optimization tiers enabled.
  PrintingSink sink;
  TtmqoOptions options;
  options.mode = OptimizationMode::kTwoTier;
  TtmqoEngine engine(network, field, &sink, options);

  // 5. Submit TinyDB-style queries.  These two overlap, so tier 1 rewrites
  //    them into a single synthetic query; the network runs one query and
  //    the base station answers both users.
  std::printf("submitting:\n");
  const Query q1 = ParseQuery(
      1, "SELECT light FROM sensors WHERE light > 400 EPOCH DURATION 4096");
  const Query q2 = ParseQuery(
      2, "SELECT MAX(light) FROM sensors WHERE light > 500 "
         "EPOCH DURATION 8192");
  std::printf("  q1: %s\n  q2: %s\n\nresults:\n", q1.ToSql().c_str(),
              q2.ToSql().c_str());
  engine.SubmitQuery(q1);
  engine.SubmitQuery(q2);

  // 6. Run 30 simulated seconds.
  network.sim().RunUntil(30'000);

  // 7. Inspect what the optimizer did and what the radio paid.
  std::printf("\nnetwork queries running: %zu (for %zu user queries)\n",
              engine.NumNetworkQueries(), engine.NumUserQueries());
  std::printf("tier-1 benefit ratio: %.0f%%\n", engine.BenefitRatio() * 100);
  std::printf("radio: %s\n",
              RunSummary::FromLedger(network.ledger(), 30'000)
                  .ToString()
                  .c_str());
  return 0;
}
