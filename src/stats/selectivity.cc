#include "stats/selectivity.h"

#include "sensing/attribute.h"

namespace ttmqo {

double UniformSelectivity(const PredicateSet& predicates) {
  double sel = 1.0;
  for (const Predicate& p : predicates.AsList()) {
    const Interval domain = AttributeRange(p.attribute);
    const Interval overlap = domain.Intersect(p.range);
    sel *= overlap.empty() ? 0.0 : overlap.Length() / domain.Length();
  }
  return sel;
}

}  // namespace ttmqo
