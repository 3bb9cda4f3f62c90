#include "core/innet/payloads.h"

#include <algorithm>

#include "sensing/attribute.h"

namespace ttmqo {
namespace {

// Epoch tag (2) + source node id (2).
constexpr std::size_t kSharedEnvelopeBytes = 4;

// Extra header bytes per additional multicast destination (address + query
// bitmap offset).
constexpr std::size_t kPerExtraDestinationBytes = 2;

// Distinct queries over every destination's list: a query counts at its
// first position only.  Each list is ascending, and a split rarely has a
// second destination, so this needs no set.
std::size_t QueryCount(const DestQueries& dest_queries) {
  std::size_t count = 0;
  for (auto dest = dest_queries.begin(); dest != dest_queries.end(); ++dest) {
    const QueryList& qs = dest->queries;
    for (auto q = qs.begin(); q != qs.end(); ++q) {
      const bool seen =
          (q != qs.begin() && *(q - 1) == *q) ||
          std::any_of(dest_queries.begin(), dest, [&](const DestEntry& e) {
            return std::binary_search(e.queries.begin(), e.queries.end(), *q);
          });
      if (!seen) ++count;
    }
  }
  return count;
}

std::size_t MulticastOverhead(const DestQueries& dest_queries) {
  return dest_queries.size() <= 1
             ? 0
             : kPerExtraDestinationBytes * (dest_queries.size() - 1);
}

}  // namespace

const QueryList* FindDest(const DestQueries& split, NodeId dest) {
  for (const DestEntry& entry : split) {
    if (entry.dest == dest) return &entry.queries;
  }
  return nullptr;
}

const QueryPartials* FindPartials(const std::vector<QueryPartials>& partials,
                                  QueryId query) {
  const auto it = std::lower_bound(
      partials.begin(), partials.end(), query,
      [](const QueryPartials& entry, QueryId key) { return entry.query < key; });
  return it != partials.end() && it->query == query ? &*it : nullptr;
}

std::size_t RepairRequestBytes(const RepairRequestPayload& payload) {
  // Query id (2) + epoch tag (2) + deadline delta (2) + target list.
  return 6 + 2 * payload.targets.size();
}

std::size_t RepairReplyBytes(const RepairReplyPayload& payload) {
  // Query id (2) + epoch tag (2) + node id (2) + flags (1).
  std::size_t bytes = 7;
  if (payload.has_row) {
    for (Attribute attr : kAllAttributes) {
      if (attr == Attribute::kNodeId) continue;
      if (payload.row.Has(attr)) bytes += AttributeSizeBytes(attr);
    }
  }
  return bytes;
}

std::size_t SharedRowBytes(const SharedRowPayload& payload) {
  std::size_t bytes = kSharedEnvelopeBytes;
  bytes += 2 * QueryCount(payload.dest_queries);  // query id list
  for (const RowEntry& entry : payload.entries) {
    bytes += 2;  // source node id
    for (Attribute attr : kAllAttributes) {
      if (attr == Attribute::kNodeId) continue;  // counted above
      if (entry.row.Has(attr)) bytes += AttributeSizeBytes(attr);
    }
  }
  bytes += MulticastOverhead(payload.dest_queries);
  return bytes;
}

std::size_t SharedAggBytes(const SharedAggPayload& payload) {
  std::size_t bytes = kSharedEnvelopeBytes;
  bytes += 2 * payload.partials.size();  // query id list
  // Identical partial vectors are serialized once, at their first
  // occurrence, and referenced by the other queries.
  const auto& all = payload.partials;
  for (auto entry = all.begin(); entry != all.end(); ++entry) {
    const bool seen =
        std::any_of(all.begin(), entry, [&](const QueryPartials& earlier) {
          return earlier.partials == entry->partials;
        });
    if (seen) continue;
    for (const PartialAggregate& p : entry->partials) {
      bytes += p.SerializedSizeBytes();
    }
  }
  bytes += MulticastOverhead(payload.dest_queries);
  return bytes;
}

}  // namespace ttmqo
