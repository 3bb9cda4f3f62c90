#include "routing/semantic_tree.h"

namespace ttmqo {

SemanticRoutingTree::SemanticRoutingTree(const Topology& topology,
                                         const RoutingTree& tree) {
  const std::size_t n = topology.size();
  ids_.resize(n);
  xs_.resize(n);
  ys_.resize(n);
  // Bottom-up: each node's ranges are its own values hulled with every
  // child subtree's ranges (leaves first in BottomUpOrder).
  for (NodeId node : tree.BottomUpOrder()) {
    Interval ids(static_cast<double>(node), static_cast<double>(node));
    const Position& pos = topology.PositionOf(node);
    Interval xs(pos.x, pos.x);
    Interval ys(pos.y, pos.y);
    for (NodeId child : tree.ChildrenOf(node)) {
      ids = ids.Hull(ids_[child]);
      xs = xs.Hull(xs_[child]);
      ys = ys.Hull(ys_[child]);
    }
    ids_[node] = ids;
    xs_[node] = xs;
    ys_[node] = ys;
  }
}

const Interval& SemanticRoutingTree::SubtreeIds(NodeId node) const {
  return ids_.at(node);
}

const Interval& SemanticRoutingTree::SubtreeX(NodeId node) const {
  return xs_.at(node);
}

const Interval& SemanticRoutingTree::SubtreeY(NodeId node) const {
  return ys_.at(node);
}

bool SemanticRoutingTree::SubtreeMayMatch(
    NodeId node, const PredicateSet& predicates) const {
  const auto ids = predicates.ConstraintOn(Attribute::kNodeId);
  if (ids.has_value() && !ids_.at(node).Intersects(*ids)) return false;
  const auto xs = predicates.ConstraintOn(Attribute::kX);
  if (xs.has_value() && !xs_.at(node).Intersects(*xs)) return false;
  const auto ys = predicates.ConstraintOn(Attribute::kY);
  if (ys.has_value() && !ys_.at(node).Intersects(*ys)) return false;
  return true;
}

bool SemanticRoutingTree::IsPrunable(const PredicateSet& predicates) {
  return predicates.ConstraintOn(Attribute::kNodeId).has_value() ||
         predicates.ConstraintOn(Attribute::kX).has_value() ||
         predicates.ConstraintOn(Attribute::kY).has_value();
}

bool SemanticRoutingTree::ShouldForward(
    const RoutingTree& tree, NodeId node,
    const PredicateSet& predicates) const {
  if (!IsPrunable(predicates)) return true;
  for (NodeId child : tree.ChildrenOf(node)) {
    if (SubtreeMayMatch(child, predicates)) return true;
  }
  return false;
}

bool NodeMayMatch(NodeId node, const Position& pos,
                  const PredicateSet& predicates) {
  const auto ids = predicates.ConstraintOn(Attribute::kNodeId);
  if (ids.has_value() && !ids->Contains(static_cast<double>(node))) {
    return false;
  }
  const auto xs = predicates.ConstraintOn(Attribute::kX);
  if (xs.has_value() && !xs->Contains(pos.x)) return false;
  const auto ys = predicates.ConstraintOn(Attribute::kY);
  if (ys.has_value() && !ys->Contains(pos.y)) return false;
  return true;
}

}  // namespace ttmqo
