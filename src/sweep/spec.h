// Declarative sweep specifications and aggregated sweep reports.
//
// A `SweepSpec` names the cartesian axes of an experiment matrix — grid
// sides, workloads, optimization modes, fault scenarios, and seed
// replicates — exactly the shape of the paper's evaluation (Section 4:
// grid sizes x query workloads x schemes).  `Expand` turns the spec into
// an ordered list of independent `RunUnit`s whose random streams all
// derive from (base seed, task coordinates), and `RunSweep` executes them
// on a thread pool.  The resulting `SweepReport` serializes to JSON;
// its canonical form omits wall-clock timing so that reports from runs
// with different `--jobs` compare byte-for-byte.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "reliable/profile.h"
#include "sweep/sweep.h"

namespace ttmqo {

/// One cell of the sweep matrix: its coordinates on every axis and the run
/// they configure.
struct SweepCell {
  std::size_t grid_side = 0;
  std::string workload;
  OptimizationMode mode = OptimizationMode::kTwoTier;
  std::string fault;
  ReliabilityProfile reliability = ReliabilityProfile::kOff;
  std::size_t replicate = 0;
  RunUnit unit;
};

/// The cartesian axes of one sweep.  Defaults reproduce a small
/// scalability matrix.
struct SweepSpec {
  /// Grid sides (nodes = side * side, base station at node 0).
  std::vector<std::size_t> grid_sides = {4};
  /// Workload names: "A"/"B"/"C" (the static Section 4.2 workloads) or
  /// "random:<k>" (k concurrent queries from the Section 4.3 random
  /// model, drawn per replicate).
  std::vector<std::string> workloads = {"C"};
  std::vector<OptimizationMode> modes = {OptimizationMode::kBaseline,
                                         OptimizationMode::kTwoTier};
  /// Fault scenarios: "none", "transient" (a random transient-outage plan
  /// drawn per replicate via `FaultPlan::RandomTransient`) or "loss:<p>"
  /// (uniform per-delivery link loss with probability p).
  std::vector<std::string> faults = {"none"};
  /// Reliability profiles ("off", "arq").  Run seeds derive from
  /// the replicate alone, so profiles compare like-for-like on identical
  /// inputs — the delivery-completeness-vs-loss figure's axes.
  std::vector<ReliabilityProfile> reliability = {ReliabilityProfile::kOff};
  /// Number of seed replicates.  Within one replicate every (grid,
  /// workload, mode, fault) cell uses the same run seed and the same
  /// generated workload, so modes compare like-for-like.
  std::size_t seeds = 1;
  std::uint64_t base_seed = 1;
  SimDuration duration_ms = 20 * 12288;
  double collisions = 0.0;
  double alpha = 0.6;

  /// Parses the compact spec language: whitespace- or ';'-separated
  /// `key=value[,value...]` entries, e.g.
  ///   "grids=4,8 workloads=A,C modes=baseline,ttmqo faults=none
  ///    seeds=3 base-seed=7 duration-ms=245760 collisions=0.02 alpha=0.6"
  /// Unknown keys, malformed values and values a run would reject (a grid
  /// a `NodeId` cannot address, a probability outside [0, 1), a negative
  /// seed, ...) throw `std::invalid_argument` naming the key.
  static SweepSpec Parse(const std::string& text);

  /// The spec rendered back in the `Parse` language (canonical order);
  /// `Parse(s.ToString()) == s` for every spec `Parse` accepts.
  std::string ToString() const;

  bool operator==(const SweepSpec&) const = default;

  /// Number of tasks the spec expands to.
  std::size_t TaskCount() const;

  /// Expands the axes (grid, then workload, then mode, then fault, then
  /// reliability, then replicate; the last axis varies fastest) into
  /// independent cells, each carrying its coordinates.
  std::vector<SweepCell> Expand() const;
};

/// One executed cell of the sweep matrix.
struct SweepRow {
  std::size_t index = 0;
  std::size_t grid_side = 0;
  std::string workload;
  std::string mode;
  std::string fault;
  std::string reliability;
  std::size_t replicate = 0;
  std::uint64_t seed = 0;
  RunResult run;
  double wall_ms = 0.0;
};

/// The aggregated outcome of one sweep execution.
struct SweepReport {
  std::string spec_text;
  unsigned jobs = 1;
  double wall_ms = 0.0;
  std::vector<SweepRow> rows;
  /// Per-worker utilization of the pool that executed the sweep.
  PoolReport pool;

  /// Row indices whose wall time exceeds `k` times the median row wall
  /// time — the stragglers that cap parallel speedup.  Empty when timing
  /// was not collected.
  std::vector<std::size_t> Stragglers(double k = 3.0) const;

  /// Writes the report as one JSON document.  With `include_timing`
  /// false, wall-clock fields (per-row `wall_ms`, the totals block, the
  /// worker/straggler/build diagnostics) are omitted and the output
  /// depends only on the spec — the canonical form the determinism tests
  /// compare byte-for-byte.
  void WriteJson(std::ostream& out, bool include_timing = true) const;

  /// `WriteJson(out, /*include_timing=*/false)` as a string.
  std::string Canonical() const;

  /// Sum of `Simulator::events_executed` over all rows.
  std::uint64_t TotalEvents() const;
};

/// Expands `spec` and simulates every cell on up to `jobs` threads
/// (0 = hardware concurrency).  Row order is the expansion order,
/// independent of scheduling.  When `registry` is set, every run feeds
/// its metrics into it, tagged with the cell's coordinates
/// (grid/workload/mode/fault/replicate) — `MetricsRegistry` is
/// thread-safe by contract and its sorted export is deterministic even
/// though runs finish in any order.
SweepReport RunSweep(const SweepSpec& spec, unsigned jobs,
                     MetricsRegistry* registry = nullptr);

}  // namespace ttmqo
