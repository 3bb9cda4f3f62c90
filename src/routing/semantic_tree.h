// Semantic Routing Tree (SRT).
//
// For value-based queries the answer set is unknown in advance and the
// query must be flooded; but "if the query is a region-based query or a
// node-id based query, the set of answer nodes are known in advance, and
// more efficient techniques such as SRT can be used" (Section 3.2.2,
// citing TinyDB).  The SRT annotates every routing-tree node with the
// ranges of the *constant* attributes (node id, position) covered by its
// subtree; query dissemination then descends only into subtrees that can
// contain answer nodes.
#pragma once

#include "net/topology.h"
#include "query/predicate.h"
#include "routing/routing_tree.h"
#include "util/interval.h"

namespace ttmqo {

/// Per-subtree constant-attribute ranges over a fixed routing tree.
class SemanticRoutingTree {
 public:
  /// Builds subtree annotations bottom-up over `tree`.
  SemanticRoutingTree(const Topology& topology, const RoutingTree& tree);

  /// The node-id range covered by `node`'s subtree (including itself).
  const Interval& SubtreeIds(NodeId node) const;

  /// The bounding box of `node`'s subtree positions.
  const Interval& SubtreeX(NodeId node) const;
  const Interval& SubtreeY(NodeId node) const;

  /// True iff some node in `node`'s subtree (including itself) can satisfy
  /// the *constant* constraints of `predicates` (currently the nodeid
  /// range; sensed attributes are ignored — their values are unknown in
  /// advance).
  bool SubtreeMayMatch(NodeId node, const PredicateSet& predicates) const;

  /// True iff `predicates` constrain any constant attribute at all — i.e.
  /// the query is node-id or region based and SRT-prunable.  Value-based
  /// queries must be flooded.
  static bool IsPrunable(const PredicateSet& predicates);

  /// True iff a propagation flood that reached `node` must be forwarded
  /// over `tree` (the tree these annotations were built over): the query
  /// is not prunable, or some child's subtree may hold an answer node.
  bool ShouldForward(const RoutingTree& tree, NodeId node,
                     const PredicateSet& predicates) const;

 private:
  std::vector<Interval> ids_;
  std::vector<Interval> xs_;
  std::vector<Interval> ys_;
};

/// True iff a node at `pos` can ever satisfy the constant constraints of
/// `predicates` (used by engines to decide whether to run a query at all).
bool NodeMayMatch(NodeId node, const Position& pos,
                  const PredicateSet& predicates);

}  // namespace ttmqo
