#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>

#include "net/topology.h"
#include "query/aggregate.h"
#include "util/mathx.h"

namespace perfbench {
namespace {

using ttmqo::EpochResult;
using ttmqo::NodeId;
using ttmqo::Query;
using ttmqo::QueryKind;
using ttmqo::Reading;
using ttmqo::SimTime;

constexpr std::size_t kMaxExamples = 5;

bool Near(double a, double b, double relative) {
  return std::fabs(a - b) <=
         relative * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Ground truth of one query at one epoch tick.
struct Truth {
  std::vector<Reading> samples;  ///< indexed by node (0 = base station)
  std::vector<bool> matches;     ///< predicate holds on the sample
  bool any_match = false;
  /// Matching nodes that are reachable under the fault plan.
  std::uint64_t alive_matching = 0;
};

class Checker {
 public:
  Checker(const RunSpec& spec, PublicRun& run, OracleTally& tally)
      : spec_(spec),
        run_(run),
        tally_(tally),
        topology_(ttmqo::Topology::Grid(spec.config.grid_side,
                                        spec.config.grid_spacing_feet,
                                        spec.config.radio.range_feet)),
        field_(ttmqo::MakeFieldModel(spec.config.field, spec.config.seed)),
        exact_(LosslessAndFaultFree(spec)) {
    // One pass over the log; `ResultLog::ResultsFor` scans it per query.
    for (const EpochResult* result : run.results.All()) {
      by_query_[result->query].push_back(result);
    }
  }

  void CheckQuery(const Query& query, SimTime submitted,
                  std::optional<SimTime> terminated) {
    const ttmqo::SimDuration epoch = query.epoch();
    const ttmqo::SimDuration duration = spec_.config.duration_ms;
    ttmqo::QueryDelivery delivery;
    // The lifetime window of `RunExperiment`'s delivery oracle.
    const SimTime first = ttmqo::AlignUp(submitted + 1, epoch);
    const auto in_window = [&](SimTime t) {
      return t >= first && (t - first) % epoch == 0 && t + epoch <= duration &&
             (!terminated.has_value() || t + epoch < *terminated);
    };
    for (SimTime t = first; in_window(t); t += epoch) {
      const Truth truth = Sample(query, t);
      const EpochResult* result = run_.results.Find(query.id(), t);
      if (query.kind() == QueryKind::kAcquisition) {
        delivery.expected += truth.alive_matching;
        if (result != nullptr) delivery.delivered += result->rows.size();
      } else {
        if (truth.alive_matching > 0) ++delivery.expected;
        if (result != nullptr && HasValue(*result)) ++delivery.delivered;
      }
      const bool delivered = result != nullptr && Delivered(*result);
      if (truth.alive_matching > 0 || delivered) ++tally_.operations;
      if (result != nullptr) Check(query, *result, truth);
    }
    // Answers outside the window are checked too; they count as operations
    // of their own.
    std::optional<SimTime> first_answer;
    for (const EpochResult* result : by_query_[query.id()]) {
      if (Delivered(*result) && !first_answer.has_value()) {
        first_answer = result->epoch_time;
      }
      if (in_window(result->epoch_time)) continue;
      if (Delivered(*result)) ++tally_.operations;
      Check(query, *result, Sample(query, result->epoch_time));
    }
    if (first_answer.has_value()) {
      tally_.first_answer_ms.push_back(*first_answer - submitted);
    }
    tally_.answers_expected += delivery.expected;
    tally_.answers_delivered += delivery.delivered;
    run_.summary.delivery[query.id()] = delivery;
  }

 private:
  static bool HasValue(const EpochResult& result) {
    return std::any_of(result.aggregates.begin(), result.aggregates.end(),
                       [](const auto& a) { return a.second.has_value(); });
  }

  static bool Delivered(const EpochResult& result) {
    return result.kind == QueryKind::kAcquisition ? !result.rows.empty()
                                                  : HasValue(result);
  }

  Truth Sample(const Query& query, SimTime t) const {
    Truth truth;
    const auto attrs = query.AcquiredAttributes();
    const std::size_t n = topology_.size();
    truth.samples.resize(n);
    truth.matches.assign(n, false);
    for (NodeId node = 1; node < n; ++node) {
      truth.samples[node] =
          field_->SampleReading(node, topology_.PositionOf(node), attrs, t);
      if (!query.predicates().Matches(truth.samples[node])) continue;
      truth.matches[node] = true;
      truth.any_match = true;
      if (spec_.config.faults.AliveAt(node, t)) ++truth.alive_matching;
    }
    return truth;
  }

  void Check(const Query& query, const EpochResult& result,
             const Truth& truth) {
    std::string why;
    if (result.kind != query.kind()) {
      why = "answer kind differs from the query's";
    } else if (query.kind() == QueryKind::kAcquisition) {
      why = CheckRows(query, result, truth);
    } else {
      why = CheckAggregates(query, result, truth);
    }
    if (why.empty()) return;
    ++tally_.wrong;
    if (tally_.examples.size() < kMaxExamples) {
      std::ostringstream out;
      out << spec_.label << ": query " << query.id() << " epoch "
          << result.epoch_time << ": " << why;
      tally_.examples.push_back(out.str());
    }
  }

  std::string CheckRows(const Query& query, const EpochResult& result,
                        const Truth& truth) {
    std::vector<bool> seen(truth.samples.size(), false);
    for (const Reading& row : result.rows) {
      ++tally_.rows_checked;
      const NodeId node = row.node();
      if (node == 0 || node >= truth.samples.size()) {
        return "row from unknown node " + std::to_string(node);
      }
      if (seen[node]) return "duplicate row of node " + std::to_string(node);
      seen[node] = true;
      if (!truth.matches[node]) {
        return "row of node " + std::to_string(node) +
               " fails the predicates";
      }
      for (const ttmqo::Attribute attr : query.attributes()) {
        const std::optional<double> got = row.Get(attr);
        const std::optional<double> want = truth.samples[node].Get(attr);
        if (!got.has_value() || !want.has_value() ||
            !Near(*got, *want, 1e-9)) {
          return "row of node " + std::to_string(node) +
                 " differs from the field sample";
        }
      }
    }
    return {};
  }

  std::string CheckAggregates(const Query& query, const EpochResult& result,
                              const Truth& truth) {
    if (result.aggregates.size() != query.aggregates().size()) {
      return "aggregate list differs from the query's";
    }
    for (std::size_t i = 0; i < result.aggregates.size(); ++i) {
      const auto& [spec, value] = result.aggregates[i];
      if (!(spec == query.aggregates()[i])) {
        return "aggregate " + spec.ToString() + " not requested";
      }
      if (!value.has_value()) continue;
      ++tally_.aggregates_checked;
      if (!truth.any_match) return spec.ToString() + " where no node matches";
      ttmqo::PartialAggregate exact(spec);
      bool is_reading = false;
      for (std::size_t n = 1; n < truth.samples.size(); ++n) {
        if (!truth.matches[n]) continue;
        const double reading = truth.samples[n].GetOrThrow(spec.attribute);
        exact.Accumulate(reading);
        is_reading = is_reading || Near(*value, reading, 1e-9);
      }
      const bool extremum = spec.op == ttmqo::AggregateOp::kMax ||
                            spec.op == ttmqo::AggregateOp::kMin;
      if (extremum && !is_reading) {
        return spec.ToString() + " is no matching node's reading";
      }
      const std::optional<double> want = exact.Finalize();
      if (want.has_value() && Near(*value, *want, 1e-6)) continue;
      // Without loss or faults an extremum can still miss contributions:
      // when a termination makes tier 1 rewrite the synthetic query serving
      // a user query just before an epoch, that epoch's answer leaves out
      // the nodes that have not switched yet, as it leaves out their rows.
      // (Seen on query_churn for 3 of seeds 1-30: 1 or 2 of about 30000
      // aggregates.)  Being some matching node's reading, checked above,
      // is all such an answer must be; any other aggregate must be exact.
      if (exact_ && !extremum) {
        return spec.ToString() + " differs from the exact value";
      }
      ++tally_.partial_aggregates;
    }
    return {};
  }

  const RunSpec& spec_;
  PublicRun& run_;
  OracleTally& tally_;
  const ttmqo::Topology topology_;
  const std::unique_ptr<ttmqo::FieldModel> field_;
  const bool exact_;
  std::map<ttmqo::QueryId, std::vector<const EpochResult*>> by_query_;
};

}  // namespace

void OracleTally::Add(const OracleTally& other) {
  operations += other.operations;
  wrong += other.wrong;
  rows_checked += other.rows_checked;
  aggregates_checked += other.aggregates_checked;
  partial_aggregates += other.partial_aggregates;
  answers_expected += other.answers_expected;
  answers_delivered += other.answers_delivered;
  first_answer_ms.insert(first_answer_ms.end(), other.first_answer_ms.begin(),
                         other.first_answer_ms.end());
  for (const std::string& example : other.examples) {
    if (examples.size() < kMaxExamples) examples.push_back(example);
  }
}

bool LosslessAndFaultFree(const RunSpec& spec) {
  return spec.config.channel.collision_prob == 0.0 &&
         spec.config.faults.Empty();
}

OracleTally CheckAnswers(const RunSpec& spec, PublicRun& run) {
  OracleTally tally;
  Checker checker(spec, run, tally);
  std::map<ttmqo::QueryId, SimTime> terminate_at;
  for (const ttmqo::WorkloadEvent& event : spec.schedule) {
    if (event.kind == ttmqo::WorkloadEvent::Kind::kTerminate) {
      terminate_at[event.id] = event.time;
    }
  }
  for (const ttmqo::WorkloadEvent& event : spec.schedule) {
    if (event.kind != ttmqo::WorkloadEvent::Kind::kSubmit) continue;
    const auto end = terminate_at.find(event.id);
    checker.CheckQuery(*event.query, event.time,
                       end == terminate_at.end()
                           ? std::nullopt
                           : std::optional<SimTime>(end->second));
  }
  // Coverage accounting, as `RunExperiment` does it: only annotated epochs.
  for (const EpochResult* result : run.results.All()) {
    if (result->coverage < 0) continue;
    ttmqo::QueryCoverage& coverage = run.summary.coverage[result->query];
    ++coverage.epochs;
    if (result->coverage < 1.0) ++coverage.partial_epochs;
    coverage.coverage_sum += result->coverage;
    coverage.min_coverage = std::min(coverage.min_coverage, result->coverage);
  }
  return tally;
}

}  // namespace perfbench
