// The answer-value oracle, built from outside the program.
//
// It rebuilds the ground truth from `MakeFieldModel`, `Topology::Grid` and
// the run's fault plan, then checks every answer in the run's `ResultLog`:
//
//  * each delivered row equals the field sample for its node, epoch and
//    selected attributes, and satisfies the query's predicates;
//  * each MAX/MIN equals the reading of some matching node; one that is
//    not the exact extremum counts as partial, since tier-1 rewrites can
//    leave nodes out of an epoch even without loss or faults;
//  * any other aggregate equals the exact value when the run is lossless
//    and fault-free (under loss it counts as partial);
//  * a value where no node matches is wrong.
//
// It also fills `summary.delivery` and `summary.coverage` exactly the way
// `RunExperiment` does, so the fidelity check can compare fingerprints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "public_run.h"

namespace perfbench {

/// What the oracle found in one or more runs.
struct OracleTally {
  /// (query, epoch) answers the oracle expects, plus any delivered answer
  /// it did not expect.
  std::uint64_t operations = 0;
  /// Delivered (query, epoch) answers with at least one wrong value.
  std::uint64_t wrong = 0;
  std::uint64_t rows_checked = 0;
  std::uint64_t aggregates_checked = 0;
  /// Delivered aggregates that differ from the exact value but are legal:
  /// an extremum that is some matching node's reading, or any aggregate
  /// under loss or faults.
  std::uint64_t partial_aggregates = 0;
  /// Rows and aggregate epochs expected and delivered (delivery_pct).
  std::uint64_t answers_expected = 0;
  std::uint64_t answers_delivered = 0;
  /// Submission to first delivered answer, one sample per answered query.
  std::vector<std::int64_t> first_answer_ms;
  /// Up to a few descriptions of wrong answers.
  std::vector<std::string> examples;

  void Add(const OracleTally& other);
};

/// True when `spec` runs on a lossless channel with no faults, where every
/// delivered aggregate other than MAX/MIN must be exact.
bool LosslessAndFaultFree(const RunSpec& spec);

/// Checks every answer of `run` and fills its delivery and coverage
/// accounting.
OracleTally CheckAnswers(const RunSpec& spec, PublicRun& run);

}  // namespace perfbench
