// Node placement and radio connectivity.
//
// The paper deploys nodes on an n×n grid with 20 ft spacing and a 50 ft
// radio radius, base station at the upper-left corner as node 0 (Section
// 4.1).  `Topology` stores positions and the two derived symmetric
// relations, neighbors (within radio range) and interferers (within
// interference range); hop levels (minimum hop count from the base
// station) are computed by BFS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/geometry.h"
#include "util/ids.h"

namespace ttmqo {

/// Interference reaches beyond communication: a transmission can corrupt
/// receptions up to twice the radio range away (the classic two-disc
/// model the channel's contention accounting uses).
inline constexpr double kInterferenceRangeFactor = 2.0;

/// An immutable deployment: positions plus radio connectivity.
class Topology {
 public:
  /// The most nodes a deployment may hold: ids run over 0..kMaxNodes-1.
  static constexpr std::size_t kMaxNodes = std::numeric_limits<NodeId>::max();

  /// Builds a topology from explicit positions.  `positions[i]` is node i's
  /// location; node 0 is the base station.  Two distinct nodes are
  /// neighbors iff their distance is at most `range_feet`.  Throws if any
  /// node is unreachable from the base station, or if there are more nodes
  /// than a `NodeId` can address.  Builds in O(n) for a deployment of
  /// bounded density: each node is compared only with the nodes of its own
  /// and the adjacent cells of a grid one interference range wide.
  Topology(std::vector<Position> positions, double range_feet);

  /// The paper's grid: `side`×`side` nodes, `spacing_feet` apart, node 0 at
  /// the upper-left corner.  Throws before allocating when `side`×`side`
  /// exceeds what a `NodeId` can address.
  static Topology Grid(std::size_t side, double spacing_feet = 20.0,
                       double range_feet = 50.0);

  /// Uniform-random deployment in a square of the given side, with the base
  /// station at the corner.  Retries until connected (deterministic in
  /// seed).  Throws at once when `num_nodes` exceeds what a `NodeId` can
  /// address.
  static Topology RandomUniform(std::size_t num_nodes, double side_feet,
                                double range_feet, std::uint64_t seed);

  /// Number of nodes (including the base station).
  std::size_t size() const { return positions_.size(); }

  /// Position of a node.
  const Position& PositionOf(NodeId node) const;

  /// Radio range in feet.
  double range_feet() const { return range_feet_; }

  /// Neighbors of `node` (symmetric, excludes the node itself), ascending.
  const std::vector<NodeId>& NeighborsOf(NodeId node) const;

  /// True iff `a` and `b` are within radio range (and distinct).
  bool AreNeighbors(NodeId a, NodeId b) const;

  /// Nodes whose transmissions can interfere with `node`'s: every other
  /// node within `kInterferenceRangeFactor * range_feet`, ascending.  A view
  /// into one flat array, precomputed so the channel never re-derives
  /// interference geometry; no bounds check — callers pass validated node
  /// ids.
  std::span<const NodeId> InterferersOf(NodeId node) const {
    return {interferer_ids_.data() + interferer_offsets_[node],
            interferer_ids_.data() + interferer_offsets_[node + 1]};
  }

  /// Minimum hop count from the base station (level 0) per node.
  const std::vector<std::size_t>& HopLevels() const { return levels_; }

  /// The largest hop level in the deployment (`max_depth` of Eq. 2).
  std::size_t MaxDepth() const { return max_depth_; }

  /// Number of nodes at each hop level; index = level.  `|N_k|` of Eq. 1.
  const std::vector<std::size_t>& NodesPerLevel() const {
    return nodes_per_level_;
  }

  /// All node ids, 0..size-1.
  std::vector<NodeId> AllNodes() const;

 private:
  std::vector<Position> positions_;
  double range_feet_;
  std::vector<std::vector<NodeId>> neighbors_;
  /// Interferer lists, flat: node i's list is `interferer_ids_` over
  /// [interferer_offsets_[i], interferer_offsets_[i + 1]).
  std::vector<std::size_t> interferer_offsets_;
  std::vector<NodeId> interferer_ids_;
  std::vector<std::size_t> levels_;
  std::vector<std::size_t> nodes_per_level_;
  std::size_t max_depth_ = 0;
};

}  // namespace ttmqo
