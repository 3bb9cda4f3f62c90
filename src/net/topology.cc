#include "net/topology.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace ttmqo {

Topology::Topology(std::vector<Position> positions, double range_feet)
    : positions_(std::move(positions)), range_feet_(range_feet) {
  CheckArg(!positions_.empty(), "Topology: need at least one node");
  CheckArg(positions_.size() <= std::numeric_limits<NodeId>::max(),
           "Topology: too many nodes for the NodeId type");
  CheckArg(range_feet > 0, "Topology: range must be positive");

  // One O(n^2) distance pass derives both relations: communication
  // (<= range) and interference (<= 2x range, bitset).
  const std::size_t n = positions_.size();
  const double interference_feet = kInterferenceRangeFactor * range_feet_;
  neighbors_.resize(n);
  bits_stride_ = (n + 63) / 64;
  interference_bits_.assign(n * bits_stride_, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double d = Distance(positions_[a], positions_[b]);
      if (d <= range_feet_) {
        neighbors_[a].push_back(static_cast<NodeId>(b));
        neighbors_[b].push_back(static_cast<NodeId>(a));
      }
      if (d <= interference_feet) {
        interference_bits_[a * bits_stride_ + b / 64] |= 1ULL << (b % 64);
        interference_bits_[b * bits_stride_ + a / 64] |= 1ULL << (a % 64);
      }
    }
  }
  // BFS from the base station for hop levels.
  constexpr std::size_t kUnreached = std::numeric_limits<std::size_t>::max();
  levels_.assign(positions_.size(), kUnreached);
  levels_[kBaseStationId] = 0;
  std::deque<NodeId> frontier{kBaseStationId};
  while (!frontier.empty()) {
    const NodeId node = frontier.front();
    frontier.pop_front();
    for (NodeId next : neighbors_[node]) {
      if (levels_[next] == kUnreached) {
        levels_[next] = levels_[node] + 1;
        frontier.push_back(next);
      }
    }
  }
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    CheckArg(levels_[i] != kUnreached,
             "Topology: node unreachable from the base station");
    max_depth_ = std::max(max_depth_, levels_[i]);
  }
  nodes_per_level_.assign(max_depth_ + 1, 0);
  for (std::size_t level : levels_) ++nodes_per_level_[level];
}

Topology Topology::Grid(std::size_t side, double spacing_feet,
                        double range_feet) {
  CheckArg(side > 0, "Topology::Grid: side must be positive");
  std::vector<Position> positions;
  positions.reserve(side * side);
  for (std::size_t row = 0; row < side; ++row) {
    for (std::size_t col = 0; col < side; ++col) {
      positions.push_back(Position{static_cast<double>(col) * spacing_feet,
                                   static_cast<double>(row) * spacing_feet});
    }
  }
  return Topology(std::move(positions), range_feet);
}

Topology Topology::RandomUniform(std::size_t num_nodes, double side_feet,
                                 double range_feet, std::uint64_t seed) {
  CheckArg(num_nodes > 0, "Topology::RandomUniform: need at least one node");
  Rng rng(seed);
  for (int attempt = 0; attempt < 256; ++attempt) {
    std::vector<Position> positions;
    positions.reserve(num_nodes);
    positions.push_back(Position{0.0, 0.0});  // base station at the corner
    for (std::size_t i = 1; i < num_nodes; ++i) {
      positions.push_back(Position{rng.Uniform(0.0, side_feet),
                                   rng.Uniform(0.0, side_feet)});
    }
    try {
      return Topology(std::move(positions), range_feet);
    } catch (const std::invalid_argument&) {
      continue;  // disconnected sample; redraw
    }
  }
  throw std::invalid_argument(
      "Topology::RandomUniform: could not draw a connected deployment; "
      "increase range or density");
}

const Position& Topology::PositionOf(NodeId node) const {
  CheckArg(node < positions_.size(), "Topology: node id out of range");
  return positions_[node];
}

const std::vector<NodeId>& Topology::NeighborsOf(NodeId node) const {
  CheckArg(node < neighbors_.size(), "Topology: node id out of range");
  return neighbors_[node];
}

bool Topology::AreNeighbors(NodeId a, NodeId b) const {
  const auto& list = NeighborsOf(a);
  return std::binary_search(list.begin(), list.end(), b);
}

std::vector<NodeId> Topology::AllNodes() const {
  std::vector<NodeId> nodes(positions_.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<NodeId>(i);
  }
  return nodes;
}

}  // namespace ttmqo
