#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/span.h"

namespace ttmqo {

unsigned HardwareJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned NumPoolWorkers(std::size_t count, unsigned jobs) {
  if (count == 0) return 0;
  if (jobs == 0) jobs = HardwareJobs();
  return static_cast<unsigned>(
      std::min<std::size_t>(std::max(1u, jobs), count));
}

void ParallelForWorkers(
    std::size_t count, unsigned jobs,
    const std::function<void(std::size_t, unsigned)>& fn) {
  if (count == 0) return;
  if (jobs == 0) jobs = HardwareJobs();
  if (jobs == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto worker = [&](unsigned worker_index) {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i, worker_index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> workers;
  const unsigned n = NumPoolWorkers(count, jobs);
  workers.reserve(n);
  for (unsigned t = 0; t < n; ++t) workers.emplace_back(worker, t);
  for (std::thread& t : workers) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void ParallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)>& fn) {
  ParallelForWorkers(count, jobs,
                     [&fn](std::size_t i, unsigned) { fn(i); });
}

double PoolReport::Utilization() const {
  if (workers.empty() || wall_ms <= 0.0) return 0.0;
  double busy = 0.0;
  for (const WorkerStat& w : workers) busy += w.busy_ms;
  return busy / (static_cast<double>(workers.size()) * wall_ms);
}

std::vector<TimedRunResult> RunMany(const std::vector<RunUnit>& units,
                                    unsigned jobs, PoolReport* pool) {
  std::vector<TimedRunResult> results(units.size());
  const unsigned n = NumPoolWorkers(units.size(), jobs);
  std::vector<WorkerStat> workers(n);
  for (unsigned w = 0; w < n; ++w) workers[w].worker = w;

  // Wall-clock here feeds only the timing (non-canonical) report section,
  // never the simulated results.
  // ttmqo-lint: allow(wall-clock): pool timing metadata
  const auto pool_start = std::chrono::steady_clock::now();
  ParallelForWorkers(units.size(), jobs, [&](std::size_t i, unsigned worker) {
    TTMQO_SPAN("sweep.task");
    const auto start = std::chrono::steady_clock::now();  // ttmqo-lint: allow(wall-clock): task timing
    results[i].run = RunExperiment(units[i].config, units[i].schedule);
    results[i].wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)  // ttmqo-lint: allow(wall-clock): task timing
            .count();
    // `workers[worker]` is touched only by the thread holding that index;
    // no synchronization needed.
    ++workers[worker].tasks;
    workers[worker].busy_ms += results[i].wall_ms;
  });
  if (pool != nullptr) {
    pool->wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - pool_start)  // ttmqo-lint: allow(wall-clock): pool timing
                        .count();
    pool->workers = std::move(workers);
  }
  return results;
}

}  // namespace ttmqo
