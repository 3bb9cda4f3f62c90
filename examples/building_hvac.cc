// Building HVAC dashboard: an aggregation-heavy deployment.  Every floor
// dashboard, the energy manager and the safety system watch overlapping
// temperature aggregates.  Tier 1 merges the identical-predicate
// aggregates; tier 2 packs the remaining partial-aggregate streams into
// shared messages and aggregates early along the DAG.
//
// The example also shows base-station-side alerting built on the result
// stream: the safety threshold query trips an alert whenever MAX(temp)
// crosses a limit.
//
//   $ building_hvac [--side=6] [--minutes=30] [--limit=85]
#include <cstdio>
#include <vector>

#include "core/ttmqo_engine.h"
#include "metrics/run_summary.h"
#include "net/topology.h"
#include "query/parser.h"
#include "sensing/field_model.h"
#include "util/flags.h"

namespace {

using namespace ttmqo;

// Watches the safety query's MAX(temp) stream and raises alerts.
class AlertingSink final : public ResultSink {
 public:
  AlertingSink(QueryId safety_query, double limit)
      : safety_query_(safety_query), limit_(limit) {}

  void OnResult(EpochResult result) override {
    ++results_;
    if (result.query != safety_query_) return;
    for (const auto& [spec, value] : result.aggregates) {
      if (spec.op == AggregateOp::kMax && value.has_value() &&
          *value > limit_) {
        ++alerts_;
        if (alerts_ <= 5) {
          std::printf("  ALERT [%6.1fs] MAX(temp) = %.1f exceeds %.1f\n",
                      static_cast<double>(result.epoch_time) / 1000.0, *value,
                      limit_);
        }
      }
    }
  }

  std::size_t alerts() const { return alerts_; }
  std::size_t results() const { return results_; }

 private:
  QueryId safety_query_;
  double limit_;
  std::size_t alerts_ = 0;
  std::size_t results_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const auto side = static_cast<std::size_t>(flags.GetInt("side", 6));
  const double minutes = flags.GetDouble("minutes", 30.0);
  const double limit = flags.GetDouble("limit", 85.0);
  const auto duration = static_cast<SimDuration>(minutes * 60'000.0);

  const Topology topology = Topology::Grid(side);
  Network network(topology, RadioParams{}, ChannelParams{}, 7);
  // The server room in one corner runs hot.
  HotspotFieldModel::Params hot;
  hot.center = Position{static_cast<double>(side - 1) * 20.0,
                        static_cast<double>(side - 1) * 20.0};
  hot.orbit_radius_feet = 10.0;
  hot.hotspot_radius_feet = 50.0;
  const HotspotFieldModel field(3, hot);

  const std::vector<const char*> dashboard = {
      // Floor dashboards: identical predicates, different aggregates and
      // rates -> tier 1 merges them into one synthetic aggregation query.
      "SELECT MAX(temp) FROM sensors EPOCH DURATION 4096",
      "SELECT MIN(temp) FROM sensors EPOCH DURATION 8192",
      "SELECT AVG(temp) FROM sensors EPOCH DURATION 8192",
      // Energy manager: hot-zone load.
      "SELECT COUNT(temp) FROM sensors WHERE temp > 70 EPOCH DURATION 8192",
      "SELECT AVG(light) FROM sensors WHERE light > 300 EPOCH DURATION "
      "16384",
      // Safety system: fast threshold watch (the alert source).
      "SELECT MAX(temp) FROM sensors EPOCH DURATION 2048",
  };
  const QueryId safety_query = 6;

  AlertingSink sink(safety_query, limit);
  TtmqoOptions options;
  options.mode = OptimizationMode::kTwoTier;
  TtmqoEngine engine(network, field, &sink, options);

  std::printf("Building HVAC: %zu queries on a %zux%zu grid, %.0f minutes, "
              "alert limit %.1f\n\n",
              dashboard.size(), side, side, minutes, limit);
  QueryId id = 1;
  for (const char* sql : dashboard) {
    engine.SubmitQuery(ParseQuery(id++, sql));
  }
  std::printf("tier 1 runs %zu network queries for %zu user queries "
              "(benefit ratio %.0f%%)\n\n",
              engine.NumNetworkQueries(), engine.NumUserQueries(),
              engine.BenefitRatio() * 100);

  network.sim().RunUntil(duration);

  std::printf("\n%zu epoch results delivered, %zu alerts raised\n",
              sink.results(), sink.alerts());
  std::printf("radio: %s\n",
              RunSummary::FromLedger(network.ledger(), duration)
                  .ToString()
                  .c_str());
  return 0;
}
