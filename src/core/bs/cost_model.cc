#include "core/bs/cost_model.h"

#include "stats/selectivity.h"

namespace ttmqo {
namespace {

// Query id (2) + epoch tag (2) accompanying every result payload; mirrors
// the engines' result envelope.
constexpr std::size_t kResultEnvelopeBytes = 4;

}  // namespace

CostModel::CostModel(const Topology& topology, const RadioParams& radio)
    : topology_(&topology),
      radio_(radio),
      num_sensors_(static_cast<double>(topology.size() - 1)) {}

double CostModel::LevelRate(double sel, SimDuration epoch,
                            std::size_t level) const {
  const auto& per_level = topology_->NodesPerLevel();
  if (level >= per_level.size()) return 0.0;
  double nodes = static_cast<double>(per_level[level]);
  if (level == 0) nodes -= 1.0;  // the base station is not a sensor
  if (nodes <= 0.0) return 0.0;
  return sel * nodes / static_cast<double>(epoch);
}

double CostModel::ResultRate(const Query& query, std::size_t level) const {
  return LevelRate(UniformSelectivity(query.predicates()), query.epoch(),
                   level);
}

double CostModel::Transmissions(const Query& query) const {
  const double sel = UniformSelectivity(query.predicates());
  if (query.kind() == QueryKind::kAggregation) {
    // Lower bound: every node that produces a result merges it into one
    // already-flowing message, so transmissions == generated results over
    // the whole network (Section 3.1.2).
    return sel * num_sensors_ / static_cast<double>(query.epoch());
  }
  double total = 0.0;
  for (std::size_t k = 1; k <= topology_->MaxDepth(); ++k) {
    total += LevelRate(sel, query.epoch(), k) * static_cast<double>(k);
  }
  return total;
}

double CostModel::MessageLengthBytes(const Query& query) const {
  return static_cast<double>(radio_.header_bytes + kResultEnvelopeBytes +
                             query.ResultPayloadBytes());
}

double CostModel::Cost(const Query& query) const {
  ++cost_evaluations_;
  // MessageLengthBytes already includes the radio header, so the per-byte
  // term uses the raw length without re-adding it.
  const double per_message =
      radio_.start_ms + radio_.per_byte_ms * MessageLengthBytes(query);
  return Transmissions(query) * per_message;
}

double CostModel::Benefit(const Query& q1, const Query& q2,
                          const Query& integrated) const {
  ++benefit_evaluations_;
  return Cost(q1) + Cost(q2) - Cost(integrated);
}

}  // namespace ttmqo
