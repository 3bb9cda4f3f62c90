// The sweep driver: expands a declarative sweep spec into its cartesian
// run matrix, simulates every cell on a worker-thread pool, and writes
// one aggregated report.
//
//   $ run_sweep                                  # default scalability sweep
//   $ run_sweep --spec="grids=4,8 workloads=A,C modes=baseline,ttmqo seeds=2"
//   $ run_sweep --spec=@sweep.spec --jobs=8 --out=sweep.json
//   $ run_sweep --bench-out=BENCH_sweep.json     # perf trajectory artifact
//
// Flags:
//   --spec=<text|@file>  axes in the spec mini-language (see spec.h); @file
//                        reads the text from a file
//   --jobs=N             worker threads (0 = hardware concurrency; default)
//   --out=p.json         aggregated report as JSON
//   --metrics-out=p.json shared MetricsRegistry across all runs, every
//                        series labeled with its cell's coordinates
//   --no-timing          omit wall-clock fields from --out, making
//                        the report canonical (byte-identical across job
//                        counts; what the determinism suite compares)
//   --bench-out=p.json   run the spec twice — jobs=1 and jobs=N — verify
//                        the two reports agree byte-for-byte, and write a
//                        BENCH_*.json perf artifact (wall clock, runs/sec,
//                        events/sec, speedup)
//   --trace-chrome=p.json  profiling spans of the whole sweep as Chrome
//                        trace-event JSON (one track per worker thread)
// The first exception out of a task is rethrown once the pool drains;
// the driver prints its message and exits 1.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "metrics/table.h"
#include "obs/build_info.h"
#include "obs/session.h"
#include "sweep/spec.h"
#include "util/flags.h"

namespace ttmqo {
namespace {

std::string LoadSpecText(const std::string& arg) {
  if (arg.empty() || arg[0] != '@') return arg;
  std::ifstream in(arg.substr(1));
  if (!in) {
    throw std::runtime_error("cannot open spec file: " + arg.substr(1));
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::ofstream OpenOutput(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open output file: " + path);
  return out;
}

void PrintSummary(const SweepReport& report) {
  TablePrinter table({"grid", "workload", "mode", "fault", "rel", "rep",
                      "avg tx %", "messages", "results", "wall ms"});
  for (const SweepRow& row : report.rows) {
    table.AddRow(
        {std::to_string(row.grid_side), row.workload, row.mode, row.fault,
         row.reliability, std::to_string(row.replicate),
         TablePrinter::Num(row.run.summary.avg_transmission_fraction * 100.0,
                           4),
         std::to_string(row.run.summary.total_messages),
         std::to_string(row.run.results.size()),
         TablePrinter::Num(row.wall_ms, 1)});
  }
  table.Print(std::cout);
  std::printf("%zu runs in %.1f ms (%.2f runs/sec, %.0f events/sec, "
              "jobs=%u)\n",
              report.rows.size(), report.wall_ms,
              static_cast<double>(report.rows.size()) * 1000.0 /
                  report.wall_ms,
              static_cast<double>(report.TotalEvents()) * 1000.0 /
                  report.wall_ms,
              report.jobs);
  if (!report.pool.workers.empty()) {
    std::printf("pool utilization %.0f%%:", report.pool.Utilization() * 100);
    for (const WorkerStat& w : report.pool.workers) {
      std::printf(" w%u=%llu tasks/%.0f ms", w.worker,
                  static_cast<unsigned long long>(w.tasks), w.busy_ms);
    }
    std::printf("\n");
  }
  const std::vector<std::size_t> stragglers = report.Stragglers();
  if (!stragglers.empty()) {
    std::printf("stragglers (> 3x median wall time):");
    for (const std::size_t index : stragglers) {
      std::printf(" #%zu (%.0f ms)", index, report.rows[index].wall_ms);
    }
    std::printf("\n");
  }
}

int WriteBenchArtifact(const SweepSpec& spec, unsigned jobs,
                       const std::string& path) {
  // At least 2 workers even on a single-core host, so the serial-vs-
  // parallel byte comparison below always crosses real threads (no
  // speedup is expected there, but the determinism check must be real).
  const unsigned parallel_jobs =
      jobs == 0 ? std::max(2u, HardwareJobs()) : jobs;
  obs::WarnIfSingleCore(std::cerr);
  std::printf("bench: running %zu tasks at jobs=1...\n", spec.TaskCount());
  const SweepReport serial = RunSweep(spec, 1);
  std::printf("bench: running %zu tasks at jobs=%u...\n", spec.TaskCount(),
              parallel_jobs);
  const SweepReport parallel = RunSweep(spec, parallel_jobs);

  // The parallel path must reproduce the serial results exactly; a
  // mismatch is a determinism bug and poisons every number below.
  if (serial.Canonical() != parallel.Canonical()) {
    std::fprintf(stderr,
                 "bench: jobs=1 and jobs=%u reports differ — determinism "
                 "violation\n",
                 parallel_jobs);
    return 1;
  }

  const auto runs_per_sec = [](const SweepReport& r) {
    return static_cast<double>(r.rows.size()) * 1000.0 / r.wall_ms;
  };
  const auto events_per_sec = [](const SweepReport& r) {
    return static_cast<double>(r.TotalEvents()) * 1000.0 / r.wall_ms;
  };
  std::ofstream out = OpenOutput(path);
  out << "{\n";
  out << "  \"bench\": \"sweep\",\n";
  out << "  \"spec\": \"" << spec.ToString() << "\",\n";
  out << "  \"tasks\": " << serial.rows.size() << ",\n";
  out << "  \"hardware_concurrency\": " << HardwareJobs() << ",\n";
  out << "  \"build\": ";
  obs::WriteBuildInfoJson(out);
  out << ",\n";
  out << "  \"events_executed\": " << serial.TotalEvents() << ",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"serial\": {\"jobs\": 1, \"wall_ms\": %.1f, "
                "\"runs_per_sec\": %.4f, \"events_per_sec\": %.0f},\n",
                serial.wall_ms, runs_per_sec(serial),
                events_per_sec(serial));
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"parallel\": {\"jobs\": %u, \"wall_ms\": %.1f, "
                "\"runs_per_sec\": %.4f, \"events_per_sec\": %.0f},\n",
                parallel.jobs, parallel.wall_ms, runs_per_sec(parallel),
                events_per_sec(parallel));
  out << buf;
  std::snprintf(buf, sizeof(buf), "  \"speedup\": %.3f,\n",
                serial.wall_ms / parallel.wall_ms);
  out << buf;
  out << "  \"per_run_wall_ms\": [";
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    if (i > 0) out << ", ";
    std::snprintf(buf, sizeof(buf), "%.1f", serial.rows[i].wall_ms);
    out << buf;
  }
  out << "],\n";
  out << "  \"deterministic_across_jobs\": true\n";
  out << "}\n";
  std::printf("bench: serial %.1f ms, parallel %.1f ms (x%.2f at jobs=%u); "
              "wrote %s\n",
              serial.wall_ms, parallel.wall_ms,
              serial.wall_ms / parallel.wall_ms, parallel.jobs, path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  // Default: the scalability matrix (network-size axis x both schemes).
  const std::string spec_arg = flags.GetString(
      "spec",
      "grids=4,6,8,10 workloads=C modes=baseline,ttmqo seeds=1 "
      "duration-ms=245760 collisions=0.02");
  const auto jobs = static_cast<unsigned>(flags.GetInt("jobs", 0));
  const auto out_path = flags.GetOptional("out");
  const auto metrics_path = flags.GetOptional("metrics-out");
  const bool no_timing = flags.GetBool("no-timing", false);
  const auto bench_out = flags.GetOptional("bench-out");
  obs::ObsSession obs_session(obs::ObsSession::FromFlags(flags));
  if (ReportUnreadFlags(flags)) return 2;

  const SweepSpec spec = SweepSpec::Parse(LoadSpecText(spec_arg));
  std::printf("sweep: %s\n%zu tasks\n\n", spec.ToString().c_str(),
              spec.TaskCount());

  if (bench_out.has_value()) {
    return WriteBenchArtifact(spec, jobs, *bench_out);
  }

  MetricsRegistry registry;
  const SweepReport report =
      RunSweep(spec, jobs, metrics_path.has_value() ? &registry : nullptr);
  PrintSummary(report);
  if (metrics_path.has_value()) {
    std::ofstream out = OpenOutput(*metrics_path);
    registry.WriteJson(out);
    out << "\n";
    std::printf("wrote metrics JSON to %s\n", metrics_path->c_str());
  }
  if (out_path.has_value()) {
    std::ofstream out = OpenOutput(*out_path);
    report.WriteJson(out, /*include_timing=*/!no_timing);
    out << "\n";
    std::printf("wrote JSON report to %s\n", out_path->c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ttmqo

int main(int argc, char** argv) {
  try {
    return ttmqo::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_sweep: %s\n", e.what());
    return 1;
  }
}
