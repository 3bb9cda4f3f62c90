#include "sweep/spec.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/bs/rewriter.h"
#include "core/ttmqo_engine.h"
#include "fault/fault_plan.h"
#include "net/topology.h"
#include "obs/build_info.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/tracing.h"
#include "workload/static_workloads.h"

namespace ttmqo {
namespace {

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == sep) {
      if (!current.empty()) parts.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) parts.push_back(std::move(current));
  return parts;
}

/// The query count k of workload "random:<k>", or 0 for a static workload
/// ("A", "B", "C"); throws for any other name, and for a k whose query ids
/// would reach the optimizer's synthetic ids.
QueryId RandomQueryCount(const std::string& name) {
  if (name == "A" || name == "B" || name == "C") return 0;
  if (name.rfind("random:", 0) == 0) {
    const std::int64_t count =
        IntOrThrow("sweep spec: workloads", name.substr(7));
    if (count < 1 || count >= BaseStationOptimizer::kFirstSyntheticId) {
      throw std::invalid_argument(
          "sweep spec: workloads random:<k> needs 1 <= k < " +
          std::to_string(BaseStationOptimizer::kFirstSyntheticId) +
          ", got '" + name + "'");
    }
    return static_cast<QueryId>(count);
  }
  throw std::invalid_argument("sweep spec: workloads: unknown workload '" +
                              name + "' (A|B|C|random:<k>)");
}

/// The link-loss probability p of fault scenario "loss:<p>", or nullopt for
/// "none" and "transient"; throws for any other scenario, and for a p
/// outside [0, 1).
std::optional<double> LinkLoss(const std::string& scenario) {
  if (scenario == "none" || scenario == "transient") return std::nullopt;
  if (scenario.rfind("loss:", 0) == 0) {
    const double p = NumberOrThrow("sweep spec: faults", scenario.substr(5));
    if (!(p >= 0.0 && p < 1.0)) {
      throw std::invalid_argument(
          "sweep spec: faults loss:<p> needs 0 <= p < 1, got '" + scenario +
          "'");
    }
    return p;
  }
  throw std::invalid_argument("sweep spec: faults: unknown scenario '" +
                              scenario + "' (none|transient|loss:<p>)");
}

/// The workload of one (name, replicate) cell.  Static workloads ignore
/// the seed; "random:<k>" draws k queries from the Section 4.3 model.
std::vector<WorkloadEvent> MakeWorkload(const std::string& name,
                                        std::uint64_t workload_seed) {
  const QueryId count = RandomQueryCount(name);
  if (count == 0) return StaticSchedule(WorkloadByName(name));
  QueryModelParams params;
  params.predicate_selectivity = 1.0;
  params.randomize_selectivity = true;
  RandomQueryModel model(params, workload_seed);
  std::vector<Query> queries;
  for (QueryId i = 1; i <= count; ++i) queries.push_back(model.Next(i));
  return StaticSchedule(queries);
}

/// The fault plan of one (scenario, grid, replicate) cell.
FaultPlan MakeFaultPlan(const std::string& scenario, std::size_t nodes,
                        SimDuration duration_ms, std::uint64_t fault_seed) {
  if (scenario == "transient") {
    return FaultPlan::RandomTransient(RandomFaultParams{}, nodes, duration_ms,
                                      fault_seed);
  }
  FaultPlan plan;
  if (const std::optional<double> loss = LinkLoss(scenario)) {
    plan.SetDefaultLinkLoss(*loss);
  }
  return plan;
}

/// `s` JSON-escaped, without the surrounding quotes.
std::string Escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  JsonEscape(s, out);
  return out;
}

/// Shortest-round-trip-ish double rendering, stable for equal doubles.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// `Num(v)`, or all 17 significant digits when 12 do not parse back to `v`,
/// so that a printed spec parses to the spec that printed it.
std::string ExactNum(double v) {
  const std::string short_form = Num(v);
  if (std::strtod(short_form.c_str(), nullptr) == v) return short_form;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Total answer rows a run delivered: acquisition rows plus finalized
/// aggregate values.
std::uint64_t DeliveredRows(const RunResult& run) {
  std::uint64_t rows = 0;
  for (const EpochResult* r : run.results.All()) {
    rows += static_cast<std::uint64_t>(r->rows.size());
    for (const auto& [spec, value] : r->aggregates) {
      if (value.has_value()) ++rows;
    }
  }
  return rows;
}

void WriteRowJson(std::ostream& out, const SweepRow& row,
                  bool include_timing) {
  const RunSummary& s = row.run.summary;
  out << "{\"index\":" << row.index << ",\"grid\":" << row.grid_side
      << ",\"workload\":\"" << Escaped(row.workload) << "\",\"mode\":\""
      << Escaped(row.mode) << "\",\"fault\":\"" << Escaped(row.fault)
      << "\",\"reliability\":\"" << Escaped(row.reliability)
      << "\",\"replicate\":" << row.replicate << ",\"seed\":" << row.seed
      << ",\"avg_tx_fraction\":" << Num(s.avg_transmission_fraction)
      << ",\"avg_sleep_fraction\":" << Num(s.avg_sleep_fraction)
      << ",\"total_transmit_ms\":" << Num(s.total_transmit_ms)
      << ",\"messages\":" << s.total_messages
      << ",\"retransmissions\":" << s.retransmissions
      << ",\"control_msgs\":" << s.control_messages
      << ",\"results\":" << row.run.results.size()
      << ",\"rows\":" << DeliveredRows(row.run)
      << ",\"avg_network_queries\":" << Num(row.run.avg_network_queries)
      << ",\"avg_benefit_ratio\":" << Num(row.run.avg_benefit_ratio)
      << ",\"peak_user_queries\":" << row.run.peak_user_queries
      << ",\"delivery_avg\":" << Num(s.AvgDeliveryCompleteness())
      << ",\"delivery_min\":" << Num(s.MinDeliveryCompleteness())
      // -1 marks "not tracked" (off); the arq profile reports real
      // per-epoch coverage.
      << ",\"coverage_avg\":"
      << Num(s.coverage.empty() ? -1.0 : s.AvgCoverage())
      << ",\"coverage_min\":"
      << Num(s.coverage.empty() ? -1.0 : s.MinCoverage())
      << ",\"partial_epochs\":" << s.PartialEpochs()
      << ",\"events_executed\":" << row.run.events_executed;
  if (include_timing) out << ",\"wall_ms\":" << Num(row.wall_ms);
  out << "}";
}

}  // namespace

SweepSpec SweepSpec::Parse(const std::string& text) {
  SweepSpec spec;
  std::string normalized = text;
  for (char& c : normalized) {
    if (c == ';' || c == '\n' || c == '\t') c = ' ';
  }
  for (const std::string& entry : SplitOn(normalized, ' ')) {
    const auto eq = entry.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("sweep spec: expected key=value, got '" +
                                  entry + "'");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    const std::vector<std::string> values = SplitOn(value, ',');
    if (values.empty()) {
      throw std::invalid_argument("sweep spec: " + key + " has no value");
    }
    const std::string what = "sweep spec: " + key;
    // Every value is range-checked here, so that a spec the run would
    // reject fails before anything runs or prints.
    const auto require = [&what](bool ok, const std::string& rule,
                                 const std::string& got) {
      if (!ok) {
        throw std::invalid_argument(what + " " + rule + ", got '" + got +
                                    "'");
      }
    };
    if (key == "grids") {
      spec.grid_sides.clear();
      for (const std::string& v : values) {
        const std::int64_t side = IntOrThrow(what, v);
        // side * side <= kMaxNodes, tested without forming the product.
        require(side >= 2 && static_cast<std::uint64_t>(side) <=
                                 Topology::kMaxNodes /
                                     static_cast<std::uint64_t>(side),
                "needs sides >= 2 with side * side <= " +
                    std::to_string(Topology::kMaxNodes),
                v);
        spec.grid_sides.push_back(static_cast<std::size_t>(side));
      }
    } else if (key == "workloads") {
      for (const std::string& v : values) RandomQueryCount(v);
      spec.workloads = values;
    } else if (key == "modes") {
      spec.modes.clear();
      for (const std::string& v : values) {
        const auto mode = ParseOptimizationMode(v);
        if (!mode) {
          throw std::invalid_argument("sweep spec: unknown mode '" + v +
                                      "' (baseline|bs|innet|ttmqo)");
        }
        spec.modes.push_back(*mode);
      }
    } else if (key == "faults") {
      for (const std::string& v : values) LinkLoss(v);
      spec.faults = values;
    } else if (key == "reliability") {
      spec.reliability.clear();
      for (const std::string& v : values) {
        spec.reliability.push_back(ParseReliabilityProfile(v));
      }
    } else if (key == "seeds") {
      const std::int64_t seeds = IntOrThrow(what, value);
      require(seeds >= 1, "must be >= 1", value);
      spec.seeds = static_cast<std::size_t>(seeds);
    } else if (key == "base-seed") {
      const std::int64_t base_seed = IntOrThrow(what, value);
      require(base_seed >= 0, "must be >= 0", value);
      spec.base_seed = static_cast<std::uint64_t>(base_seed);
    } else if (key == "duration-ms") {
      const std::int64_t duration = IntOrThrow(what, value);
      require(duration > 0, "must be positive", value);
      spec.duration_ms = duration;
    } else if (key == "collisions") {
      const double collisions = NumberOrThrow(what, value);
      require(collisions >= 0.0 && collisions < 1.0, "must be in [0, 1)",
              value);
      spec.collisions = collisions;
    } else if (key == "alpha") {
      const double alpha = NumberOrThrow(what, value);
      require(std::isfinite(alpha) && alpha >= 0.0, "must be finite and >= 0",
              value);
      spec.alpha = alpha;
    } else {
      throw std::invalid_argument(
          "sweep spec: unknown key '" + key +
          "' (grids|workloads|modes|faults|reliability|seeds|base-seed|"
          "duration-ms|collisions|alpha)");
    }
  }
  CheckArg(!spec.grid_sides.empty() && !spec.workloads.empty() &&
               !spec.modes.empty() && !spec.faults.empty() &&
               !spec.reliability.empty(),
           "sweep spec: every axis needs at least one value");
  return spec;
}

std::string SweepSpec::ToString() const {
  std::ostringstream out;
  const auto join = [&out](const char* key, const auto& values,
                           const auto& render) {
    out << key << "=";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out << ",";
      out << render(values[i]);
    }
    out << " ";
  };
  join("grids", grid_sides, [](std::size_t side) { return side; });
  join("workloads", workloads, [](const std::string& w) { return w; });
  join("modes", modes, [](OptimizationMode m) { return ShortModeName(m); });
  join("faults", faults, [](const std::string& f) { return f; });
  join("reliability", reliability,
       [](ReliabilityProfile p) { return ReliabilityProfileName(p); });
  out << "seeds=" << seeds << " base-seed=" << base_seed << " duration-ms="
      << duration_ms << " collisions=" << ExactNum(collisions) << " alpha="
      << ExactNum(alpha);
  return out.str();
}

std::size_t SweepSpec::TaskCount() const {
  return grid_sides.size() * workloads.size() * modes.size() * faults.size() *
         reliability.size() * seeds;
}

std::vector<SweepCell> SweepSpec::Expand() const {
  std::vector<SweepCell> cells;
  cells.reserve(TaskCount());
  const Rng root(base_seed);
  for (const std::size_t side : grid_sides) {
    for (const std::string& workload : workloads) {
      for (const OptimizationMode mode : modes) {
        for (const std::string& fault : faults) {
          for (const ReliabilityProfile profile : reliability) {
            for (std::size_t replicate = 0; replicate < seeds; ++replicate) {
              cells.push_back(
                  {side, workload, mode, fault, profile, replicate, {}});
            }
          }
        }
      }
    }
  }
  for (SweepCell& cell : cells) {
    // All streams of a replicate derive from (base seed, coordinates); the
    // run/workload/fault seeds are shared across the mode and reliability
    // axes so schemes compare like-for-like on identical inputs.
    const std::uint64_t run_seed = root.Fork(0x10000 + cell.replicate).seed();
    const std::uint64_t workload_seed =
        root.Fork(0x20000 + cell.replicate).seed();
    const std::uint64_t fault_seed =
        root.Fork(0x30000 + cell.replicate).seed() ^ (cell.grid_side << 8);

    RunUnit& unit = cell.unit;
    unit.config.grid_side = cell.grid_side;
    unit.config.mode = cell.mode;
    unit.config.alpha = alpha;
    unit.config.duration_ms = duration_ms;
    unit.config.seed = run_seed;
    unit.config.channel.collision_prob = collisions;
    unit.config.reliability = cell.reliability;
    unit.config.faults =
        MakeFaultPlan(cell.fault, cell.grid_side * cell.grid_side,
                      duration_ms, fault_seed);
    unit.schedule = MakeWorkload(cell.workload, workload_seed);
    std::ostringstream label;
    label << "grid=" << cell.grid_side << " workload=" << cell.workload
          << " mode=" << ShortModeName(cell.mode) << " fault=" << cell.fault
          << " reliability=" << ReliabilityProfileName(cell.reliability)
          << " replicate=" << cell.replicate;
    unit.label = label.str();
  }
  return cells;
}

std::vector<std::size_t> SweepReport::Stragglers(double k) const {
  std::vector<double> walls;
  walls.reserve(rows.size());
  for (const SweepRow& row : rows) {
    if (row.wall_ms > 0.0) walls.push_back(row.wall_ms);
  }
  if (walls.size() < 2) return {};
  std::sort(walls.begin(), walls.end());
  const double median = walls[walls.size() / 2];
  std::vector<std::size_t> out;
  for (const SweepRow& row : rows) {
    if (row.wall_ms > k * median) out.push_back(row.index);
  }
  return out;
}

void SweepReport::WriteJson(std::ostream& out, bool include_timing) const {
  out << "{\"spec\":\"" << Escaped(spec_text) << "\",\"tasks\":"
      << rows.size();
  if (include_timing) {
    out << ",\"jobs\":" << jobs << ",\"wall_ms\":" << Num(wall_ms);
    if (wall_ms > 0) {
      out << ",\"runs_per_sec\":"
          << Num(static_cast<double>(rows.size()) * 1000.0 / wall_ms)
          << ",\"events_per_sec\":"
          << Num(static_cast<double>(TotalEvents()) * 1000.0 / wall_ms);
    }
    // Pool utilization, stragglers, and build provenance live only in the
    // timed form: they depend on the machine and the moment, never on the
    // spec, so the canonical (jobs-independent) report must not see them.
    if (!pool.workers.empty()) {
      out << ",\"pool_utilization\":" << Num(pool.Utilization())
          << ",\"workers\":[";
      for (std::size_t i = 0; i < pool.workers.size(); ++i) {
        const WorkerStat& w = pool.workers[i];
        if (i > 0) out << ",";
        out << "{\"worker\":" << w.worker << ",\"tasks\":" << w.tasks
            << ",\"busy_ms\":" << Num(w.busy_ms);
        if (pool.wall_ms > 0.0) {
          out << ",\"utilization\":" << Num(w.busy_ms / pool.wall_ms);
        }
        out << "}";
      }
      out << "]";
    }
    const std::vector<std::size_t> stragglers = Stragglers();
    out << ",\"stragglers\":[";
    for (std::size_t i = 0; i < stragglers.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"index\":" << stragglers[i] << ",\"label\":\""
          << Escaped(rows[stragglers[i]].workload) << "\",\"wall_ms\":"
          << Num(rows[stragglers[i]].wall_ms) << "}";
    }
    out << "]";
    const obs::BuildInfo& build = obs::GetBuildInfo();
    out << ",\"build\":{\"git_sha\":\"" << Escaped(build.git_sha)
        << "\",\"compiler\":\"" << Escaped(build.compiler)
        << "\",\"build_type\":\"" << Escaped(build.build_type)
        << "\",\"hostname\":\"" << Escaped(build.hostname)
        << "\",\"hardware_concurrency\":" << build.hardware_concurrency
        << "}";
  }
  out << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n";
    WriteRowJson(out, rows[i], include_timing);
  }
  out << "\n]}";
}

std::string SweepReport::Canonical() const {
  std::ostringstream out;
  WriteJson(out, /*include_timing=*/false);
  return out.str();
}

std::uint64_t SweepReport::TotalEvents() const {
  std::uint64_t events = 0;
  for (const SweepRow& row : rows) events += row.run.events_executed;
  return events;
}

SweepReport RunSweep(const SweepSpec& spec, unsigned jobs,
                     MetricsRegistry* registry) {
  std::vector<SweepCell> cells = spec.Expand();
  std::vector<RunUnit> units;
  units.reserve(cells.size());
  for (SweepCell& cell : cells) {
    if (registry != nullptr) {
      cell.unit.config.obs.registry = registry;
      cell.unit.config.obs.labels = {
          {"grid", std::to_string(cell.grid_side)},
          {"workload", cell.workload},
          {"mode", std::string(ShortModeName(cell.mode))},
          {"fault", cell.fault},
          {"reliability",
           std::string(ReliabilityProfileName(cell.reliability))},
          {"replicate", std::to_string(cell.replicate)}};
    }
    units.push_back(std::move(cell.unit));
  }
  PoolReport pool;
  // Wall-clock feeds only the timing (non-canonical) report section.
  // ttmqo-lint: allow(wall-clock): sweep timing metadata
  const auto start = std::chrono::steady_clock::now();
  std::vector<TimedRunResult> results = RunMany(units, jobs, &pool);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)  // ttmqo-lint: allow(wall-clock): sweep timing
                             .count();

  SweepReport report;
  report.spec_text = spec.ToString();
  report.jobs = jobs == 0 ? HardwareJobs() : jobs;
  report.wall_ms = wall_ms;
  report.pool = std::move(pool);
  report.rows.reserve(cells.size());
  for (std::size_t index = 0; index < cells.size(); ++index) {
    const SweepCell& cell = cells[index];
    SweepRow row;
    row.index = index;
    row.grid_side = cell.grid_side;
    row.workload = cell.workload;
    row.mode = std::string(OptimizationModeName(cell.mode));
    row.fault = cell.fault;
    row.reliability = std::string(ReliabilityProfileName(cell.reliability));
    row.replicate = cell.replicate;
    row.seed = units[index].config.seed;
    row.run = std::move(results[index].run);
    row.wall_ms = results[index].wall_ms;
    report.rows.push_back(std::move(row));
  }
  return report;
}

}  // namespace ttmqo
