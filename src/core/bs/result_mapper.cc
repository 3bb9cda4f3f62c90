#include "core/bs/result_mapper.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "query/predicate.h"
#include "util/check.h"
#include "util/inline_list.h"

namespace ttmqo {
namespace {

// The predicates the base station still has to apply, in attribute order:
// member constraints not already enforced in-network by the synthetic
// query.  (The synthetic query's own predicates filtered the rows at the
// source, and rows only carry the synthetic projection — attributes of
// constraints the network already applied in full need not be present.)
// A member constrains each attribute at most once, so the list never
// leaves its inline storage.
using Residual = InlineList<Predicate, kNumAttributes>;

Residual ResidualPredicates(const Query& member, const Query& synthetic) {
  Residual residual;
  for (Attribute attr : kAllAttributes) {
    const std::optional<Interval>& range =
        member.predicates().ConstraintOn(attr);
    if (!range.has_value()) continue;
    if (synthetic.predicates().ConstraintOn(attr) == range) continue;
    residual.push_back(Predicate{attr, *range});
  }
  return residual;
}

// Indices of the synthetic rows that satisfy `residual`, in row order.  An
// epoch of up to 64 rows (an 8x8 grid) selects without the heap.
using RowIndices = InlineList<std::uint32_t, 64>;

RowIndices MatchingRows(const EpochResult& synthetic,
                        const Residual& residual) {
  RowIndices matched;
  for (std::size_t i = 0; i < synthetic.rows.size(); ++i) {
    const Reading& row = synthetic.rows[i];
    const bool matches =
        std::all_of(residual.begin(), residual.end(),
                    [&](const Predicate& p) { return p.Matches(row); });
    if (matches) matched.push_back(static_cast<std::uint32_t>(i));
  }
  return matched;
}

void ProjectRows(const EpochResult& synthetic, const RowIndices& matched,
                 const Query& member, EpochResult& out) {
  out.rows.reserve(matched.size());
  for (const std::uint32_t i : matched) {
    const Reading& row = synthetic.rows[i];
    Reading& projected = out.rows.emplace_back(row.node(), row.time());
    for (Attribute attr : member.attributes()) {
      projected.Set(attr, row.GetOrThrow(attr));
    }
  }
}

void AggregateRows(const EpochResult& synthetic, const RowIndices& matched,
                   const Query& member, EpochResult& out) {
  out.aggregates.reserve(member.aggregates().size());
  for (const AggregateSpec& spec : member.aggregates()) {
    PartialAggregate partial(spec);
    for (const std::uint32_t i : matched) {
      partial.Accumulate(synthetic.rows[i].GetOrThrow(spec.attribute));
    }
    out.aggregates.emplace_back(spec, partial.Finalize());
  }
}

void SelectAggregates(const EpochResult& synthetic, const Query& member,
                      EpochResult& out) {
  out.aggregates.reserve(member.aggregates().size());
  for (const AggregateSpec& spec : member.aggregates()) {
    const auto it = std::find_if(
        synthetic.aggregates.begin(), synthetic.aggregates.end(),
        [&](const auto& entry) { return entry.first == spec; });
    Check(it != synthetic.aggregates.end(),
          "synthetic aggregation result lacks a member's aggregate");
    out.aggregates.emplace_back(spec, it->second);
  }
}

}  // namespace

EpochResult MapMemberResult(const EpochResult& synthetic,
                            const Query& synthetic_query, const Query& member) {
  EpochResult out;
  out.query = member.id();
  out.epoch_time = synthetic.epoch_time;
  out.kind = member.kind();
  // The synthetic query was the transport: its epoch coverage is the
  // member's epoch coverage.
  out.coverage = synthetic.coverage;
  out.contributing_nodes = synthetic.contributing_nodes;
  if (synthetic.kind == QueryKind::kAggregation) {
    Check(member.kind() == QueryKind::kAggregation,
          "an acquisition member cannot be served by an aggregation query");
    SelectAggregates(synthetic, member, out);
    return out;
  }
  const RowIndices matched =
      MatchingRows(synthetic, ResidualPredicates(member, synthetic_query));
  if (member.kind() == QueryKind::kAcquisition) {
    ProjectRows(synthetic, matched, member, out);
  } else {
    AggregateRows(synthetic, matched, member, out);
  }
  return out;
}

}  // namespace ttmqo
