#include "query/predicate.h"

#include <charconv>
#include <sstream>

#include "util/check.h"

namespace ttmqo {
namespace {

// A constraint equal to (or wider than) the physical range is vacuous.
bool IsVacuous(Attribute attr, const Interval& range) {
  return range.Covers(AttributeRange(attr));
}

// The shortest fixed-notation text that parses back to `value` exactly; the
// SQL lexer reads no exponent.  The buffer fits any finite double.
std::string FixedNumber(double value) {
  std::array<char, 512> buf;
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(),
                                       value, std::chars_format::fixed);
  Check(ec == std::errc(), "FixedNumber: value does not fit the buffer");
  return std::string(buf.data(), end);
}

}  // namespace

std::string Predicate::ToString() const {
  std::string out(AttributeName(attribute));
  // An empty range keeps no bounds; BETWEEN 1 AND 0 parses back to the
  // canonical empty interval.
  if (range.empty()) return out + " BETWEEN 1 AND 0";
  return out + " BETWEEN " + FixedNumber(range.lo()) + " AND " +
         FixedNumber(range.hi());
}

PredicateSet PredicateSet::Of(const std::vector<Predicate>& predicates) {
  PredicateSet set;
  for (const Predicate& p : predicates) {
    set.Constrain(p.attribute, p.range);
  }
  return set;
}

void PredicateSet::Constrain(Attribute attribute, const Interval& range) {
  auto& slot = constraints_[AttributeIndex(attribute)];
  const Interval combined = slot.has_value() ? slot->Intersect(range) : range;
  if (IsVacuous(attribute, combined)) {
    slot.reset();
  } else {
    slot = combined;
  }
}

bool PredicateSet::IsUnconstrained() const {
  for (const auto& c : constraints_) {
    if (c.has_value()) return false;
  }
  return true;
}

bool PredicateSet::IsUnsatisfiable() const {
  for (const auto& c : constraints_) {
    if (c.has_value() && c->empty()) return true;
  }
  return false;
}

std::vector<Predicate> PredicateSet::AsList() const {
  std::vector<Predicate> list;
  for (Attribute attr : kAllAttributes) {
    const auto& c = constraints_[AttributeIndex(attr)];
    if (c.has_value()) list.push_back(Predicate{attr, *c});
  }
  return list;
}

AttributeSet PredicateSet::ReferencedAttributes() const {
  AttributeSet attrs;
  for (Attribute attr : kAllAttributes) {
    if (constraints_[AttributeIndex(attr)].has_value()) attrs.Insert(attr);
  }
  return attrs;
}

bool PredicateSet::Matches(const Reading& reading) const {
  for (Attribute attr : kAllAttributes) {
    const auto& c = constraints_[AttributeIndex(attr)];
    if (!c.has_value()) continue;
    const std::optional<double> value = reading.Get(attr);
    if (!value.has_value() || !c->Contains(*value)) return false;
  }
  return true;
}

bool PredicateSet::CoversSetOf(const PredicateSet& other) const {
  for (Attribute attr : kAllAttributes) {
    const auto& mine = constraints_[AttributeIndex(attr)];
    if (!mine.has_value()) continue;  // we are unconstrained here
    const auto& theirs = other.constraints_[AttributeIndex(attr)];
    // `other` is unconstrained on an attribute we constrain: their matching
    // readings can fall outside our interval.
    if (!theirs.has_value()) return false;
    if (!mine->Covers(*theirs)) return false;
  }
  return true;
}

PredicateSet PredicateSet::IntegrationUnion(const PredicateSet& a,
                                            const PredicateSet& b) {
  PredicateSet result;
  for (Attribute attr : kAllAttributes) {
    const auto& ca = a.constraints_[AttributeIndex(attr)];
    const auto& cb = b.constraints_[AttributeIndex(attr)];
    if (ca.has_value() && cb.has_value()) {
      result.Constrain(attr, ca->Hull(*cb));
    }
    // Constrained in only one input: the union must relax the constraint.
  }
  return result;
}

std::string PredicateSet::ToString() const {
  const std::vector<Predicate> list = AsList();
  if (list.empty()) return "(none)";
  std::ostringstream out;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out << " AND ";
    out << list[i].ToString();
  }
  return out.str();
}

}  // namespace ttmqo
