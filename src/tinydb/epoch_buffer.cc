#include "tinydb/epoch_buffer.h"

#include <algorithm>
#include <utility>

#include "tinydb/payloads.h"

namespace ttmqo {

EpochBuffer::Arrival EpochBuffer::AddRow(SimTime epoch, const Reading& row) {
  if (IsClosed(epoch)) return Arrival::kLate;
  return rows_[epoch].try_emplace(row.node(), row).second
             ? Arrival::kStored
             : Arrival::kDuplicate;
}

EpochBuffer::Arrival EpochBuffer::AddPartials(
    SimTime epoch, const std::vector<PartialAggregate>& partials) {
  if (IsClosed(epoch)) return Arrival::kLate;
  std::vector<PartialAggregate>& merged = partials_[epoch];
  if (merged.empty()) {
    merged = partials;
  } else {
    MergePartialVectors(merged, partials);
  }
  return Arrival::kStored;
}

bool EpochBuffer::HasRow(SimTime epoch, NodeId source) const {
  const auto it = rows_.find(epoch);
  return it != rows_.end() && it->second.contains(source);
}

int EpochBuffer::Contributors(SimTime epoch) const {
  if (const auto it = rows_.find(epoch); it != rows_.end()) {
    return static_cast<int>(it->second.size());
  }
  if (const auto it = partials_.find(epoch);
      it != partials_.end() && !it->second.empty()) {
    return static_cast<int>(it->second.front().count());
  }
  return 0;
}

EpochResult EpochBuffer::Close(const Query& query, SimTime epoch) {
  EpochResult result;
  result.query = query.id();
  result.epoch_time = epoch;
  result.kind = query.kind();
  if (query.kind() == QueryKind::kAcquisition) {
    const auto rows_it = rows_.find(epoch);
    if (rows_it != rows_.end()) {
      // Rows may carry more attributes than the query selected (tier 2
      // packs the union projection of every query a reading answers);
      // narrowing makes the answer match the baseline's exactly.
      result.rows.reserve(rows_it->second.size());
      for (const auto& [node, row] : rows_it->second) {
        Reading projected(row.node(), row.time());
        for (Attribute attr : query.attributes()) {
          projected.Set(attr, row.GetOrThrow(attr));
        }
        result.rows.push_back(std::move(projected));
      }
    }
  } else {
    const auto agg_it = partials_.find(epoch);
    const std::vector<PartialAggregate>* merged =
        agg_it != partials_.end() ? &agg_it->second : nullptr;
    const std::vector<AggregateSpec>& specs = query.aggregates();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      result.aggregates.emplace_back(
          specs[i], merged != nullptr && i < merged->size()
                        ? (*merged)[i].Finalize()
                        : PartialAggregate(specs[i]).Finalize());
    }
  }
  closed_through_ = std::max(closed_through_, epoch);
  rows_.erase(rows_.begin(), rows_.upper_bound(epoch));
  partials_.erase(partials_.begin(), partials_.upper_bound(epoch));
  return result;
}

void EpochBuffer::Clear() {
  rows_.clear();
  partials_.clear();
}

}  // namespace ttmqo
