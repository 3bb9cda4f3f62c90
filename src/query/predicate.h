// Range predicates over sensor attributes.
//
// The paper stores predicates as `(attribute, min, max)` triples (Section
// 3.1.1) and integrates queries by widening them; a `PredicateSet` is the
// conjunction of at most one range predicate per attribute.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "sensing/attribute.h"
#include "sensing/reading.h"
#include "util/interval.h"

namespace ttmqo {

/// One range predicate: `attribute ∈ [min, max]`.
struct Predicate {
  Attribute attribute = Attribute::kLight;
  Interval range;

  /// True iff the reading's value for `attribute` lies in `range`.  Readings
  /// lacking the attribute do not match (predicates are evaluated where the
  /// attribute was acquired).
  bool Matches(const Reading& reading) const {
    const std::optional<double> value = reading.Get(attribute);
    return value.has_value() && range.Contains(*value);
  }

  /// "light BETWEEN 100 AND 600", in SQL that `ParseQuery` reads back to
  /// the same range; an empty range prints as "light BETWEEN 1 AND 0".
  std::string ToString() const;

  bool operator==(const Predicate&) const = default;
};

/// A conjunction of range predicates, normalized to at most one interval per
/// attribute.  Predicates spanning an attribute's whole physical range are
/// dropped (they are vacuous), so structural equality coincides with
/// semantic equality for range conjunctions.
class PredicateSet {
 public:
  /// The empty conjunction (matches every reading).
  PredicateSet() = default;

  /// Builds from a list of predicates; multiple predicates on one attribute
  /// are intersected.
  static PredicateSet Of(const std::vector<Predicate>& predicates);

  /// Adds `attribute ∈ range` to the conjunction (intersecting with any
  /// existing constraint on the attribute).
  void Constrain(Attribute attribute, const Interval& range);

  /// True iff the conjunction has no (non-vacuous) predicates.
  bool IsUnconstrained() const;

  /// True when some constraint is an empty interval (matches nothing).
  bool IsUnsatisfiable() const;

  /// The constraint on `attribute`, or nullopt when unconstrained.
  const std::optional<Interval>& ConstraintOn(Attribute attribute) const {
    return constraints_[AttributeIndex(attribute)];
  }

  /// All non-vacuous predicates, in attribute order.
  std::vector<Predicate> AsList() const;

  /// Attributes referenced by any predicate.
  AttributeSet ReferencedAttributes() const;

  /// True iff `reading` satisfies every predicate.
  bool Matches(const Reading& reading) const;

  /// True iff every reading matching `other` also matches this set (this set
  /// is weaker, i.e. selects a superset).  For range conjunctions this holds
  /// iff each of our constraints covers the corresponding constraint of
  /// `other`.
  bool CoversSetOf(const PredicateSet& other) const;

  /// The widened conjunction used when integrating two queries (Section
  /// 3.1.2): attributes constrained in *both* inputs keep the convex hull of
  /// the two intervals; attributes constrained in only one input become
  /// unconstrained.  The result selects a superset of the union of the two
  /// inputs' answer sets.
  static PredicateSet IntegrationUnion(const PredicateSet& a,
                                       const PredicateSet& b);

  bool operator==(const PredicateSet& other) const = default;

  /// "light BETWEEN 100 AND 600 AND temp BETWEEN 0 AND 40" or "(none)".
  std::string ToString() const;

 private:
  std::array<std::optional<Interval>, kNumAttributes> constraints_;
};

}  // namespace ttmqo
