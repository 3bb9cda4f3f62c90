// The experiment harness: builds a deployment, runs a workload schedule
// under a chosen optimization mode, and collects the paper's measurements.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/ttmqo_engine.h"
#include "fault/fault_plan.h"
#include "metrics/epoch_sampler.h"
#include "metrics/registry.h"
#include "metrics/run_summary.h"
#include "net/radio.h"
#include "query/result.h"
#include "util/tracing.h"
#include "workload/generator.h"

namespace ttmqo {

/// Which synthetic field feeds the sensors.
enum class FieldKind { kUniform, kCorrelated, kHotspot };

/// Builds the field a run with master seed `seed` observes (the runner
/// derives the field seed from the master seed; tests and benches use this
/// to reconstruct ground truth).
std::unique_ptr<FieldModel> MakeFieldModel(FieldKind kind,
                                           std::uint64_t master_seed);

/// How nodes are deployed.
enum class TopologyKind {
  kGrid,    ///< the paper's n x n grid
  kRandom,  ///< uniform-random placement (base station at the corner)
};

/// Optional observability hooks of a run.  Everything is borrowed and must
/// outlive `RunExperiment`; all default to off.
struct RunObservability {
  /// When set, the run exports into the registry once, at run end: the
  /// per-node/per-class radio counters of its ledger, the final
  /// `RunSummary`, tier-1 decision counts, and cost-model evaluation
  /// counts as gauges/counters — all tagged with `labels`.
  MetricsRegistry* registry = nullptr;
  /// Extra labels for everything the run writes into `registry`
  /// (e.g. {{"mode","ttmqo"}} when several runs share one registry).
  MetricLabels labels;
  /// When set, the run's one trace sink: the network installs it and
  /// forwards every event of the run to it — radio ("tx", "drop",
  /// "linkdrop", "sleep"/"wake", "fail"/"down"/"recover"), fault
  /// ("fault.*"), decision ("tier1.*", "tier2.*", "engine.*") and the
  /// "run.start"/"run.end" brackets.
  TraceSink* trace = nullptr;
  /// When set, `sampler->Start(network, sample_period_ms)` is called before
  /// the run, producing the per-epoch time series.  A sampler can serve
  /// only one run.
  EpochSampler* sampler = nullptr;
  SimDuration sample_period_ms = kMinEpochDurationMs;
};

/// Everything a run needs.
struct RunConfig {
  TopologyKind topology = TopologyKind::kGrid;
  /// Grid side (the paper uses 4 and 8, i.e. 16 and 64 nodes).
  std::size_t grid_side = 4;
  double grid_spacing_feet = 20.0;
  /// Random deployments: node count and square side (feet).
  std::size_t random_nodes = 25;
  double random_side_feet = 100.0;
  RadioParams radio;
  ChannelParams channel;
  FieldKind field = FieldKind::kCorrelated;
  OptimizationMode mode = OptimizationMode::kTwoTier;
  /// Tier-1 alpha (Algorithm 2).
  double alpha = 0.6;
  /// Tier-1 candidate search: indexed (default) or the naive oracle scan;
  /// decisions and results are identical either way.
  bool tier1_use_index = true;
  /// In-network ablation switches (applied to modes that use tier 2).
  InNetOptions innet;
  /// Named reliability profile applied on top of `innet`: off, or arq
  /// (the ARQ transport with gap repair, liveness failover and
  /// dissemination re-floods).  The ARQ jitter seed is derived from the
  /// master seed unless the caller pinned one explicitly.
  ReliabilityProfile reliability = ReliabilityProfile::kOff;
  /// Simulated duration.
  SimDuration duration_ms = 20 * 60 * 1000;
  /// Periodic network maintenance beacons (0 disables them).
  SimDuration maintenance_period_ms = 30000;
  std::size_t maintenance_payload_bytes = 6;
  /// Master seed (field, link quality, channel).
  std::uint64_t seed = 1;
  /// Declarative fault schedule (crashes, outages, link loss, partitions).
  /// Validated up front against the deployment and duration; a bad
  /// schedule fails fast with a clear error instead of mid-run.
  FaultPlan faults;
  /// Sample engine statistics every this many ms (0 disables sampling).
  SimDuration stats_sample_period_ms = kMinEpochDurationMs;
  /// Metrics / tracing / time-series hooks (all optional).
  RunObservability obs;
};

/// Measurements of one run.
struct RunResult {
  RunSummary summary;
  /// Per-user-query answers observed at the base station.
  ResultLog results;
  /// Time-averaged number of network (synthetic) queries.
  double avg_network_queries = 0.0;
  /// Time-averaged tier-1 benefit ratio (0 for non-rewriting modes).
  double avg_benefit_ratio = 0.0;
  /// Benefit ratio at the end of the run.
  double final_benefit_ratio = 0.0;
  /// Peak number of concurrently active user queries.
  std::size_t peak_user_queries = 0;
  /// Simulator events executed (diagnostics).
  std::uint64_t events_executed = 0;
};

/// The engine options `RunExperiment` builds its `TtmqoEngine` with:
/// `config`'s mode, alpha, index switch and tier-2 options under its
/// reliability profile, with the ARQ jitter seed forked off the master
/// seed unless `config.innet` sets one.
TtmqoOptions EngineOptionsFor(const RunConfig& config);

/// Runs `schedule` under `config` and returns the measurements.  Fully
/// deterministic in the config.
RunResult RunExperiment(const RunConfig& config,
                        const std::vector<WorkloadEvent>& schedule);

}  // namespace ttmqo
