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
//
// An open epoch is one flat record: its rows in arrival order, a bitmap
// of their sources for the duplicate test, and the merged partials.  A
// closed epoch's record keeps its capacity for a later epoch, so a
// buffer in steady state files rows without allocating.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
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
                      std::span<const PartialAggregate> partials);

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

  /// Drops every buffered arrival (the query terminated) and returns the
  /// records' memory.
  void Clear();

 private:
  /// One open epoch's arrivals.
  struct OpenEpoch {
    SimTime epoch = 0;
    /// At most one row per source, in arrival order.
    std::vector<Reading> rows;
    /// Bit `source % 64` of word `source / 64` is set when `rows` holds a
    /// row from `source`.
    std::vector<std::uint64_t> sources;
    /// The element-wise merge of every partial vector received.
    std::vector<PartialAggregate> partials;
  };

  /// `epoch`'s record, or nullptr when nothing arrived for it.
  const OpenEpoch* Find(SimTime epoch) const;
  /// `epoch`'s record, opened (from a recycled one when possible) if
  /// absent.
  OpenEpoch& Open(SimTime epoch);

  /// The open epochs' records, in no particular order, followed by spare
  /// records that keep the capacity of closed epochs.
  std::vector<OpenEpoch> records_;
  /// Number of open records at the front of `records_`.
  std::size_t open_ = 0;
  /// Epochs at or before this are closed.
  SimTime closed_through_ = std::numeric_limits<SimTime>::min();
};

}  // namespace ttmqo
