// Parallel execution of independent simulation runs.
//
// Every experiment in this repo reduces to a set of independent
// `RunConfig -> RunResult` simulations (a grid of sizes x workloads x
// modes x seeds); this module fans such a set out over a pool of worker
// threads.  Each task constructs its own `Simulator`/`Network`/engine
// stack and derives every random stream from the task's own seed, so the
// collected results are byte-identical regardless of thread count or
// completion order: results are stored by task index, never by finish
// time.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "workload/runner.h"

namespace ttmqo {

/// Number of worker threads "--jobs=0" resolves to: the hardware
/// concurrency, at least 1.
unsigned HardwareJobs();

/// Runs `fn(0) .. fn(count-1)` on up to `jobs` worker threads (`jobs == 0`
/// means `HardwareJobs()`; `jobs == 1` runs inline).  Tasks are claimed
/// from a shared counter, so callers must make each invocation independent
/// of execution order.  The first exception thrown by any task is
/// rethrown on the calling thread after all workers finish.
void ParallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)>& fn);

/// `ParallelFor` that also passes the claiming worker's index
/// (`0 .. NumPoolWorkers(count, jobs) - 1`) so callers can keep per-worker
/// tallies without synchronization.
void ParallelForWorkers(
    std::size_t count, unsigned jobs,
    const std::function<void(std::size_t, unsigned)>& fn);

/// Number of worker threads `ParallelFor(count, jobs, ...)` actually uses.
unsigned NumPoolWorkers(std::size_t count, unsigned jobs);

/// Per-worker utilization of one `RunMany` execution.
struct WorkerStat {
  unsigned worker = 0;
  std::uint64_t tasks = 0;   ///< tasks this worker claimed
  double busy_ms = 0.0;      ///< wall time spent inside tasks
};

/// Pool-level observability of a `RunMany` call; feeds the sweep report's
/// utilization and straggler diagnostics.
struct PoolReport {
  double wall_ms = 0.0;  ///< the whole pool, start to join
  std::vector<WorkerStat> workers;

  /// busy / (workers * wall): 1.0 = perfectly load-balanced pool.
  double Utilization() const;
};

/// One independent simulation of a sweep: a full run configuration plus
/// its workload schedule.  The label names the task in reports
/// ("grid=8 workload=C mode=ttmqo seed=3").
struct RunUnit {
  std::string label;
  RunConfig config;
  std::vector<WorkloadEvent> schedule;
};

/// A run's measurements plus the wall-clock time the simulation took.
struct TimedRunResult {
  RunResult run;
  double wall_ms = 0.0;
};

/// Simulates every unit on up to `jobs` threads and returns the results
/// in unit order.  Each unit gets a private engine stack; nothing is
/// shared between concurrent tasks except `RunObservability` hooks the
/// caller put into the configs (a `MetricsRegistry` is safe, a trace
/// writer is not — serialize trace-capturing sweeps with `jobs = 1`).
/// When `pool` is non-null it receives per-worker task counts and busy
/// time.
std::vector<TimedRunResult> RunMany(const std::vector<RunUnit>& units,
                                    unsigned jobs,
                                    PoolReport* pool = nullptr);

}  // namespace ttmqo
