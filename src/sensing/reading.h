// A sensor reading: one node's attribute values at one sample instant.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "sensing/attribute.h"
#include "util/check.h"
#include "util/ids.h"
#include "util/time.h"

namespace ttmqo {

/// The values a node observed when it sampled its sensors.  A reading always
/// carries the node id; sensed attributes are present only if sampled.
class Reading {
 public:
  Reading() = default;

  /// Creates a reading for `node` at `time` with `nodeid` pre-populated.
  Reading(NodeId node, SimTime time) : node_(node), time_(time) {
    Set(Attribute::kNodeId, static_cast<double>(node));
  }

  /// The node that produced the reading.
  NodeId node() const { return node_; }

  /// The sample instant.
  SimTime time() const { return time_; }

  /// Stores an attribute value (overwrites any previous value).
  void Set(Attribute attr, double value) {
    values_[AttributeIndex(attr)] = value;
    present_[AttributeIndex(attr)] = true;
  }

  /// The value of `attr`, or nullopt when it was not sampled.
  std::optional<double> Get(Attribute attr) const {
    if (!present_[AttributeIndex(attr)]) return std::nullopt;
    return values_[AttributeIndex(attr)];
  }

  /// The value of `attr`; throws when absent.
  double GetOrThrow(Attribute attr) const {
    Check(present_[AttributeIndex(attr)],
          "Reading::GetOrThrow: attribute not sampled");
    return values_[AttributeIndex(attr)];
  }

  /// True when `attr` was sampled.
  bool Has(Attribute attr) const { return present_[AttributeIndex(attr)]; }

  /// Human-readable rendering for logs.
  std::string ToString() const;

 private:
  NodeId node_ = 0;
  SimTime time_ = 0;
  std::array<double, kNumAttributes> values_{};
  std::array<bool, kNumAttributes> present_{};
};

}  // namespace ttmqo
