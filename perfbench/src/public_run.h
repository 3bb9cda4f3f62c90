// One run driven through the program's public calls.
//
// `RunPublic` makes the calls `RunExperiment` makes, in the same order —
// `Topology::Grid`, `FaultPlan::Validate`, the `Network` constructor,
// `MakeFieldModel`, the `TtmqoEngine` constructor, the maintenance beacons,
// `SubmitQuery`/`TerminateQuery` from scheduled events,
// `FaultPlan::ScheduleOn`, `Simulator::RunUntil`,
// `Network::FinalizeAccounting` and `RunSummary::FromLedger` — so the
// benchmark can time every layer's entry point from its own files.  Each
// call sits inside an `obs::SpanScope` named "bench.*"; the spans record
// only while `obs::SpansEnabled()`.  The fidelity check proves the sequence
// still matches `RunExperiment` event for event.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bs/rewriter.h"
#include "metrics/run_summary.h"
#include "query/result.h"
#include "workloads.h"

namespace perfbench {

/// Counters the layers hold at the end of a run, read before teardown.
struct LayerCounters {
  ttmqo::OptimizationMode mode = ttmqo::OptimizationMode::kTwoTier;
  std::uint64_t events = 0;
  // net.radio
  std::uint64_t messages = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t abandoned = 0;
  // core.bs (tier 1); zero unless the mode rewrites
  ttmqo::BaseStationOptimizer::DecisionStats decisions;
  ttmqo::BaseStationOptimizer::IndexStats index;
  std::uint64_t cost_evaluations = 0;
  /// Time-averaged number of network (synthetic) queries, sampled like
  /// `RunExperiment`'s statistics tick.
  double synthetic_avg = 0.0;
  // core.innet (tier 2); zero unless the mode runs tier 2
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t late_drops = 0;
  std::uint64_t repair_requests = 0;
  std::uint64_t repair_replies = 0;
  // reliable (the ARQ transport); zero unless the run uses arq
  std::uint64_t arq_sends = 0;
  std::uint64_t arq_retransmits = 0;
  std::uint64_t arq_acks = 0;
  std::uint64_t arq_duplicates_dropped = 0;
  std::uint64_t arq_give_ups = 0;
  std::uint64_t arq_quarantines = 0;
};

/// Host times of one run, in nanoseconds of `obs::NowNs`.
struct RunTimes {
  std::uint64_t setup_ns = 0;      ///< first construction to the first event
  std::uint64_t loop_ns = 0;       ///< inside `RunUntil`
  std::uint64_t summarize_ns = 0;  ///< `FinalizeAccounting` + `FromLedger`
  std::uint64_t TotalNs() const { return setup_ns + loop_ns + summarize_ns; }
};

/// Per-call host times of the tier-1 entry points.
struct CallSamples {
  std::vector<std::uint64_t> submit_ns;
  std::vector<std::uint64_t> terminate_ns;
};

/// Everything one run produced.
struct PublicRun {
  ttmqo::ResultLog results;
  /// The ledger summary; `delivery` and `coverage` stay empty until the
  /// oracle fills them.
  ttmqo::RunSummary summary;
  LayerCounters counters;
  RunTimes times;
};

/// Runs `spec` through the public calls.  When `calls` is set, every
/// submit and terminate is timed into it.
PublicRun RunPublic(const RunSpec& spec, CallSamples* calls = nullptr);

/// Performs only the set-up of `spec` (everything before the first
/// simulated event), tears it down, and returns the set-up host time.
std::uint64_t SetupOnly(const RunSpec& spec);

}  // namespace perfbench
