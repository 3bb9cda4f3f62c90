// Shared fixtures for engine-level tests.
#pragma once

#include <memory>
#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "query/query.h"
#include "query/result.h"
#include "sensing/field_model.h"

namespace ttmqo::testing {

/// Both ways a receiver can register, for network tests that must hold
/// whichever way the receivers listen.
inline constexpr Network::Hearing kBothHearings[] = {
    Network::Hearing::kAddressedOnly, Network::Hearing::kOverheard};

/// Computes the ground-truth answer of `query` at epoch `t` directly from
/// the field model, bypassing the network entirely.  This is an independent
/// oracle: every engine must reproduce it on a lossless channel.
inline EpochResult OracleResult(const Query& query, SimTime t,
                                const FieldModel& field,
                                const Topology& topology) {
  EpochResult expected;
  expected.query = query.id();
  expected.epoch_time = t;
  expected.kind = query.kind();
  std::vector<PartialAggregate> partials;
  for (const AggregateSpec& spec : query.aggregates()) {
    partials.emplace_back(spec);
  }
  for (NodeId node = 1; node < topology.size(); ++node) {
    const Reading sample = field.SampleReading(
        node, topology.PositionOf(node), query.AcquiredAttributes(), t);
    if (!query.predicates().Matches(sample)) continue;
    if (query.kind() == QueryKind::kAcquisition) {
      Reading row(node, t);
      for (Attribute attr : query.attributes()) {
        row.Set(attr, sample.GetOrThrow(attr));
      }
      expected.rows.push_back(std::move(row));
    } else {
      for (PartialAggregate& p : partials) {
        p.Accumulate(sample.GetOrThrow(p.spec().attribute));
      }
    }
  }
  for (const PartialAggregate& p : partials) {
    expected.aggregates.emplace_back(p.spec(), p.Finalize());
  }
  return expected;
}

/// Fills a `ResultLog` with oracle results for `query` at every epoch in
/// (0, until].
inline void FillOracle(ResultLog& log, const Query& query, SimTime until,
                       const FieldModel& field, const Topology& topology) {
  for (SimTime t = query.epoch(); t + query.epoch() <= until;
       t += query.epoch()) {
    log.OnResult(OracleResult(query, t, field, topology));
  }
}

}  // namespace ttmqo::testing
