#include "tinydb/epoch_buffer.h"

#include <algorithm>
#include <utility>

#include "tinydb/payloads.h"

namespace ttmqo {

const EpochBuffer::OpenEpoch* EpochBuffer::Find(SimTime epoch) const {
  for (std::size_t i = 0; i < open_; ++i) {
    if (records_[i].epoch == epoch) return &records_[i];
  }
  return nullptr;
}

EpochBuffer::OpenEpoch& EpochBuffer::Open(SimTime epoch) {
  if (const OpenEpoch* found = Find(epoch)) {
    return records_[static_cast<std::size_t>(found - records_.data())];
  }
  if (open_ == records_.size()) records_.emplace_back();
  OpenEpoch& record = records_[open_++];
  record.epoch = epoch;
  return record;
}

EpochBuffer::Arrival EpochBuffer::AddRow(SimTime epoch, const Reading& row) {
  if (IsClosed(epoch)) return Arrival::kLate;
  OpenEpoch& record = Open(epoch);
  const std::size_t word = row.node() / 64;
  const std::uint64_t bit = std::uint64_t{1} << (row.node() % 64);
  if (word >= record.sources.size()) record.sources.resize(word + 1, 0);
  if ((record.sources[word] & bit) != 0) return Arrival::kDuplicate;
  record.sources[word] |= bit;
  record.rows.push_back(row);
  return Arrival::kStored;
}

EpochBuffer::Arrival EpochBuffer::AddPartials(
    SimTime epoch, std::span<const PartialAggregate> partials) {
  if (IsClosed(epoch)) return Arrival::kLate;
  std::vector<PartialAggregate>& merged = Open(epoch).partials;
  if (merged.empty()) {
    merged.assign(partials.begin(), partials.end());
  } else {
    MergePartialVectors(merged, partials);
  }
  return Arrival::kStored;
}

bool EpochBuffer::HasRow(SimTime epoch, NodeId source) const {
  const OpenEpoch* record = Find(epoch);
  const std::size_t word = source / 64;
  return record != nullptr && word < record->sources.size() &&
         (record->sources[word] >> (source % 64) & 1) != 0;
}

int EpochBuffer::Contributors(SimTime epoch) const {
  const OpenEpoch* record = Find(epoch);
  if (record == nullptr) return 0;
  if (!record->rows.empty()) return static_cast<int>(record->rows.size());
  if (!record->partials.empty()) {
    return static_cast<int>(record->partials.front().count());
  }
  return 0;
}

EpochResult EpochBuffer::Close(const Query& query, SimTime epoch) {
  EpochResult result;
  result.query = query.id();
  result.epoch_time = epoch;
  result.kind = query.kind();
  OpenEpoch* record = nullptr;
  if (const OpenEpoch* found = Find(epoch)) {
    record = &records_[static_cast<std::size_t>(found - records_.data())];
  }
  if (query.kind() == QueryKind::kAcquisition) {
    if (record != nullptr && !record->rows.empty()) {
      // Rows may carry more attributes than the query selected (tier 2
      // packs the union projection of every query a reading answers);
      // narrowing makes the answer match the baseline's exactly.  Sources
      // are unique, so node order is a total order.
      std::vector<Reading>& rows = record->rows;
      std::sort(rows.begin(), rows.end(),
                [](const Reading& a, const Reading& b) {
                  return a.node() < b.node();
                });
      result.rows.reserve(rows.size());
      for (const Reading& row : rows) {
        Reading projected(row.node(), row.time());
        for (Attribute attr : query.attributes()) {
          projected.Set(attr, row.GetOrThrow(attr));
        }
        result.rows.push_back(std::move(projected));
      }
    }
  } else {
    const std::vector<PartialAggregate>* merged =
        record != nullptr ? &record->partials : nullptr;
    const std::vector<AggregateSpec>& specs = query.aggregates();
    result.aggregates.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      result.aggregates.emplace_back(
          specs[i], merged != nullptr && i < merged->size()
                        ? (*merged)[i].Finalize()
                        : PartialAggregate(specs[i]).Finalize());
    }
  }
  closed_through_ = std::max(closed_through_, epoch);
  // Drop every epoch up to this one: its record is emptied, keeping its
  // capacity, and moved behind the open ones.
  for (std::size_t i = 0; i < open_;) {
    OpenEpoch& closed = records_[i];
    if (closed.epoch > epoch) {
      ++i;
      continue;
    }
    closed.rows.clear();
    closed.sources.clear();
    closed.partials.clear();
    std::swap(closed, records_[--open_]);
  }
  return result;
}

void EpochBuffer::Clear() {
  records_ = {};
  open_ = 0;
}

}  // namespace ttmqo
