#include "workloads.h"

#include <algorithm>

#include "fault/fault_plan.h"
#include "net/topology.h"
#include "util/check.h"
#include "workload/generator.h"
#include "workload/static_workloads.h"

namespace perfbench {
namespace {

using ttmqo::OptimizationMode;
using ttmqo::RunConfig;
using ttmqo::SimDuration;

/// Derives an independent stream seed from the workload seed (splitmix64),
/// so neighbouring workload seeds share no run seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  // Kept below 2^53 so the seed survives a round trip through JSON.
  return (z ^ (z >> 31)) >> 11;
}

RunConfig GridConfig(std::size_t side, SimDuration duration,
                     double collisions, std::uint64_t seed) {
  RunConfig config;
  config.grid_side = side;
  config.duration_ms = duration;
  config.channel.collision_prob = collisions;
  config.seed = seed;
  return config;
}

/// Sets the spec's cell and label from its config.
void Name(RunSpec& spec, std::string_view workload) {
  const RunConfig& config = spec.config;
  spec.cell = "grid=" + std::to_string(config.grid_side) + " workload=" +
              std::string(workload) + " seed=" + std::to_string(config.seed);
  if (config.reliability != ttmqo::ReliabilityProfile::kOff) {
    spec.cell += " reliability=" +
                 std::string(ttmqo::ReliabilityProfileName(config.reliability));
  }
  spec.label =
      spec.cell + " mode=" + std::string(OptimizationModeName(config.mode));
}

/// Figure 3's grid sweep: every static workload under every mode.
std::vector<RunSpec> PaperSweep(std::uint64_t seed, bool reduced) {
  const std::vector<std::size_t> grids =
      reduced ? std::vector<std::size_t>{4} : std::vector<std::size_t>{4, 6, 8, 10};
  // Many short cells rather than few long ones: a cell's field decides
  // much of its traffic, so the pass's total work steadies with the count.
  const std::size_t replicates = reduced ? 1 : 9;
  const SimDuration duration = reduced ? 49152 : 163840;
  const OptimizationMode modes[] = {
      OptimizationMode::kBaseline, OptimizationMode::kBaseStationOnly,
      OptimizationMode::kInNetworkOnly, OptimizationMode::kTwoTier};
  std::vector<RunSpec> runs;
  std::uint64_t cell = 0;
  for (std::size_t r = 0; r < replicates; ++r) {
    for (const std::size_t side : grids) {
      for (const char* workload : {"A", "B", "C"}) {
        // Every cell draws its own seed; its four modes share it, so the
        // savings compare like with like.
        const std::uint64_t run_seed = Mix(seed, cell++);
        const auto schedule =
            ttmqo::StaticSchedule(ttmqo::WorkloadByName(workload));
        for (const OptimizationMode mode : modes) {
          RunSpec spec;
          spec.config = GridConfig(side, duration, 0.02, run_seed);
          spec.config.mode = mode;
          spec.schedule = schedule;
          Name(spec, workload);
          runs.push_back(std::move(spec));
        }
      }
    }
  }
  return runs;
}

/// Tier 2 and the radio at scale: WorkloadC on three 30x30 grids.
std::vector<RunSpec> Tier2Grid(std::uint64_t seed, bool reduced) {
  const std::size_t replicates = reduced ? 1 : 3;
  std::vector<RunSpec> runs;
  for (std::size_t r = 0; r < replicates; ++r) {
    RunSpec spec;
    spec.config = GridConfig(reduced ? 8 : 30, reduced ? 49152 : 81920, 0.02,
                             Mix(seed, r));
    spec.schedule = ttmqo::StaticSchedule(ttmqo::WorkloadC());
    Name(spec, "C");
    runs.push_back(std::move(spec));
  }
  return runs;
}

/// Tier-1 churn: Section 4.3 random queries arriving every 100 ms on
/// average and living 60 s, on eight lossless 6x6 grids of 2500 queries.
/// A run's cost depends on its random query mix (up to 20% between seeds
/// at four grids), so eight grids keep the pass's total steadier.
std::vector<RunSpec> QueryChurn(std::uint64_t seed, bool reduced) {
  const std::size_t replicates = reduced ? 1 : 8;
  std::vector<RunSpec> runs;
  for (std::size_t r = 0; r < replicates; ++r) {
    ttmqo::QueryModelParams params;
    params.predicate_selectivity = 1.0;
    params.randomize_selectivity = true;
    ttmqo::RandomQueryModel model(params, Mix(seed, 100 + r));
    RunSpec spec;
    spec.schedule = ttmqo::DynamicSchedule(model, reduced ? 300 : 2500, 100.0,
                                           60'000.0, Mix(seed, 200 + r));
    ttmqo::SimTime last = 0;
    for (const ttmqo::WorkloadEvent& event : spec.schedule) {
      last = std::max(last, event.time);
    }
    spec.config = GridConfig(6, last + 1, 0.0, Mix(seed, r));
    Name(spec, "random");
    runs.push_back(std::move(spec));
  }
  return runs;
}

/// The ARQ transport under 10% link loss plus random transient outages:
/// 72 independent 6x6 deployments.  From 8x8 up, arq collapses on some
/// seeds and not others (delivery 19-100% at 12x12, one seed in six at
/// 93% on 8x8), so a larger grid would measure which seeds collapse rather
/// than the transport.
std::vector<RunSpec> LossyArq(std::uint64_t seed, bool reduced) {
  const std::size_t replicates = reduced ? 1 : 72;
  std::vector<RunSpec> runs;
  for (std::size_t r = 0; r < replicates; ++r) {
    RunSpec spec;
    spec.config = GridConfig(6, reduced ? 98304 : 122880, 0.02,
                             Mix(seed, 100 + r));
    spec.config.reliability = ttmqo::ReliabilityProfile::kArq;
    ttmqo::RandomFaultParams faults;
    faults.link_loss = 0.10;
    spec.config.faults = ttmqo::FaultPlan::RandomTransient(
        faults, spec.config.grid_side * spec.config.grid_side,
        spec.config.duration_ms, Mix(seed, 200 + r));
    spec.schedule = ttmqo::StaticSchedule(ttmqo::WorkloadC());
    Name(spec, "C");
    runs.push_back(std::move(spec));
  }
  return runs;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_sweep", "tier2_grid",
                                                 "query_churn", "lossy_arq"};
  return names;
}

bool IsWorkload(std::string_view name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::vector<RunSpec> MakeRuns(std::string_view name, std::uint64_t seed,
                              bool reduced) {
  if (name == "paper_sweep") return PaperSweep(seed, reduced);
  if (name == "tier2_grid") return Tier2Grid(seed, reduced);
  if (name == "query_churn") return QueryChurn(seed, reduced);
  if (name == "lossy_arq") return LossyArq(seed, reduced);
  ttmqo::CheckArg(false, "unknown workload");
  return {};
}

}  // namespace perfbench
