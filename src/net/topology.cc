#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace ttmqo {

namespace {

// Two nodes a < b.
using NodePair = std::pair<NodeId, NodeId>;

// Every pair a < b within `far_feet` of each other into `far`, and those
// also within `near_feet` into `near`, both listed by ascending a.  The
// nodes are bucketed into square cells at least `far_feet` wide, so each
// node is compared (by squared distance, each pair once) only with the
// nodes of its own and the 8 adjacent cells.  A deployment spread far
// wider than its node count gets wider cells, which keeps the cell array
// within 4 cells per node.
void FindPairs(const std::vector<Position>& positions, double near_feet,
               double far_feet, std::vector<NodePair>& near,
               std::vector<NodePair>& far) {
  const std::size_t n = positions.size();
  double min_x = positions[0].x, max_x = min_x;
  double min_y = positions[0].y, max_y = min_y;
  for (const Position& p : positions) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  CheckArg(std::isfinite(max_x - min_x) && std::isfinite(max_y - min_y),
           "Topology: positions must be finite");
  double cell_feet = far_feet;
  double cols = 0, rows = 0;
  for (;; cell_feet *= 2) {
    cols = std::floor((max_x - min_x) / cell_feet) + 1;
    rows = std::floor((max_y - min_y) / cell_feet) + 1;
    if (cols * rows <= 4.0 * static_cast<double>(n)) break;
  }
  const auto num_cols = static_cast<std::size_t>(cols);
  const auto num_rows = static_cast<std::size_t>(rows);

  // Counting sort by cell: cell c holds `by_cell` over
  // [cell_start[c], cell_start[c + 1]).
  std::vector<std::size_t> col_of(n), row_of(n);
  std::vector<std::size_t> cell_start(num_cols * num_rows + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    col_of[i] = std::min(
        static_cast<std::size_t>((positions[i].x - min_x) / cell_feet),
        num_cols - 1);
    row_of[i] = std::min(
        static_cast<std::size_t>((positions[i].y - min_y) / cell_feet),
        num_rows - 1);
    ++cell_start[row_of[i] * num_cols + col_of[i] + 1];
  }
  for (std::size_t c = 0; c + 1 < cell_start.size(); ++c) {
    cell_start[c + 1] += cell_start[c];
  }
  std::vector<NodeId> by_cell(n);
  std::vector<std::size_t> fill(cell_start.begin(), cell_start.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    by_cell[fill[row_of[i] * num_cols + col_of[i]]++] =
        static_cast<NodeId>(i);
  }

  const double near_sq = near_feet * near_feet;
  const double far_sq = far_feet * far_feet;
  for (std::size_t a = 0; a < n; ++a) {
    const Position& pa = positions[a];
    const std::size_t row_end = std::min(row_of[a] + 1, num_rows - 1);
    const std::size_t col_end = std::min(col_of[a] + 1, num_cols - 1);
    for (std::size_t r = row_of[a] > 0 ? row_of[a] - 1 : 0; r <= row_end;
         ++r) {
      for (std::size_t c = col_of[a] > 0 ? col_of[a] - 1 : 0; c <= col_end;
           ++c) {
        const std::size_t cell = r * num_cols + c;
        for (std::size_t k = cell_start[cell]; k < cell_start[cell + 1]; ++k) {
          const NodeId b = by_cell[k];
          if (b <= a) continue;
          const double dx = pa.x - positions[b].x;
          const double dy = pa.y - positions[b].y;
          const double d_sq = dx * dx + dy * dy;
          if (d_sq > far_sq) continue;
          far.emplace_back(static_cast<NodeId>(a), b);
          if (d_sq <= near_sq) near.emplace_back(static_cast<NodeId>(a), b);
        }
      }
    }
  }
}

// The symmetric relation given by `pairs` (a < b, listed by ascending a) as
// per-node ascending lists in one flat array: node i's partners are `ids`
// over [offsets[i], offsets[i + 1]).  No list is sorted.  Appending each a
// to b's list in pair order fills every list's lower part (the partners
// below the node) in ascending order; transposing those lower parts by
// ascending node then appends every list's upper part in order.
void BuildLists(std::size_t n, const std::vector<NodePair>& pairs,
                std::vector<std::size_t>& offsets, std::vector<NodeId>& ids) {
  offsets.assign(n + 1, 0);
  for (const auto& [a, b] : pairs) {
    ++offsets[a + 1];
    ++offsets[b + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  ids.resize(offsets[n]);
  std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
  for (const auto& [a, b] : pairs) ids[fill[b]++] = a;
  // Node b's upper part only grows once b itself has been transposed, so
  // [offsets[b], fill[b]) is exactly its lower part here.
  for (std::size_t b = 0; b < n; ++b) {
    const std::size_t lower_end = fill[b];
    for (std::size_t i = offsets[b]; i < lower_end; ++i) {
      ids[fill[ids[i]]++] = static_cast<NodeId>(b);
    }
  }
}

}  // namespace

Topology::Topology(std::vector<Position> positions, double range_feet)
    : positions_(std::move(positions)), range_feet_(range_feet) {
  CheckArg(!positions_.empty(), "Topology: need at least one node");
  CheckArg(positions_.size() <= kMaxNodes,
           "Topology: too many nodes for the NodeId type");
  CheckArg(range_feet > 0, "Topology: range must be positive");

  // Both relations from one pass over nearby pairs: communication
  // (<= range) and interference (<= kInterferenceRangeFactor x range).
  const std::size_t n = positions_.size();
  std::vector<NodePair> near_pairs;
  std::vector<NodePair> far_pairs;
  FindPairs(positions_, range_feet_, kInterferenceRangeFactor * range_feet_,
            near_pairs, far_pairs);
  BuildLists(n, far_pairs, interferer_offsets_, interferer_ids_);
  std::vector<std::size_t> offsets;
  std::vector<NodeId> ids;
  BuildLists(n, near_pairs, offsets, ids);
  neighbors_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    neighbors_[i].assign(
        ids.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
        ids.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
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
  // side * side <= kMaxNodes, tested without forming the product, which
  // wraps for a huge side.
  if (side > kMaxNodes / side) {
    throw std::invalid_argument(
        "Topology::Grid: a side of " + std::to_string(side) +
        " gives more nodes than a NodeId can address (at most " +
        std::to_string(kMaxNodes) + ")");
  }
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
  if (num_nodes > kMaxNodes) {
    throw std::invalid_argument(
        "Topology::RandomUniform: " + std::to_string(num_nodes) +
        " nodes are more than a NodeId can address (at most " +
        std::to_string(kMaxNodes) + ")");
  }
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
