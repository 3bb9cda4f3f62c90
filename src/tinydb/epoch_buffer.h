// The base station's per-query answer buffer, shared by both engines.
//
// The paper judges both tiers by comparing their answer streams with
// TinyDB's (Section 4), so arrivals at the base station must become
// per-epoch answers the same way under every engine.  An `EpochBuffer`
// files one query's arrivals by epoch until that epoch closes: at most one
// row per source (a second delivery of the same row is a duplicate) and
// one element-wise merged partial vector.  `Close(epoch)` turns the
// epoch's contents into the user's answer — rows projected to the query's
// attribute list, each aggregate finalized — and drops everything up to
// that epoch.  An arrival for a closed epoch is late and is not stored, so
// the buffer stays bounded however many stragglers trickle in.
#pragma once

#include <limits>
#include <map>
#include <vector>

#include "query/aggregate.h"
#include "query/query.h"
#include "query/result.h"
#include "sensing/reading.h"
#include "util/ids.h"
#include "util/time.h"

namespace ttmqo {

/// One query's arrivals at the base station, per open epoch.
class EpochBuffer {
 public:
  /// What became of one arrival.
  enum class Arrival {
    kStored,     ///< filed under its epoch (or merged into it)
    kDuplicate,  ///< the epoch already holds a row from this source
    kLate,       ///< the epoch is closed; nothing was stored
  };

  /// Files `row` under `epoch`, keyed by its source `row.node()`.
  Arrival AddRow(SimTime epoch, const Reading& row);

  /// Merges `partials` element-wise into `epoch`'s vector.  Never a
  /// duplicate: partials from different subtrees add up.
  Arrival AddPartials(SimTime epoch,
                      const std::vector<PartialAggregate>& partials);

  /// True once `Close` ran for `epoch` or a later epoch.
  bool IsClosed(SimTime epoch) const { return epoch <= closed_through_; }

  /// True when `epoch` holds a row from `source`.
  bool HasRow(SimTime epoch, NodeId source) const;

  /// Nodes whose data `epoch` holds so far: its row count, or the reading
  /// count of its merged partials.
  int Contributors(SimTime epoch) const;

  /// The answer of `query` for `epoch`: buffered rows in node order,
  /// narrowed to `query.attributes()`, or one finalized value per
  /// aggregate (an aggregate nothing reached finalizes its empty record).
  /// Drops every epoch up to and including `epoch`.
  EpochResult Close(const Query& query, SimTime epoch);

  /// Drops every buffered arrival (the query terminated).
  void Clear();

 private:
  std::map<SimTime, std::map<NodeId, Reading>> rows_;
  std::map<SimTime, std::vector<PartialAggregate>> partials_;
  /// Epochs at or before this are closed.
  SimTime closed_through_ = std::numeric_limits<SimTime>::min();
};

}  // namespace ttmqo
