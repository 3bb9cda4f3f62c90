// An interactive (or scripted) console for the simulated sensor network.
//
//   $ query_console [--side=4] [--mode=ttmqo|baseline|bs|innet]
//
// A bad flag value exits 1 with "query_console: <reason>" on stderr; an
// unknown flag exits 2.
//
// Commands (stdin, one per line; '#' starts a comment):
//   submit <sql>        register a query; its id is printed
//   terminate <id>      stop a query
//   run <seconds>       advance simulated time; results print as they land
//   synthetics          show the synthetic queries currently running
//   stats               show radio statistics
//   help                this text
//   quit                exit
//
// Example session:
//   submit SELECT light WHERE light > 400 EPOCH DURATION 4096
//   submit SELECT MAX(light) EPOCH DURATION 8192
//   run 30
//   synthetics
//   stats
//   quit
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/ttmqo_engine.h"
#include "metrics/run_summary.h"
#include "net/topology.h"
#include "query/parser.h"
#include "sensing/field_model.h"
#include "util/flags.h"

namespace {

using namespace ttmqo;

class ConsoleSink final : public ResultSink {
 public:
  void OnResult(EpochResult result) override {
    std::printf("  [%8.1fs] %s\n",
                static_cast<double>(result.epoch_time) / 1000.0,
                result.ToString().c_str());
  }
};

void PrintHelp() {
  std::printf(
      "commands: submit <sql> | terminate <id> | run <seconds> | "
      "synthetics | stats | help | quit\n");
}

}  // namespace

int main(int argc, char** argv) {
  // A bad flag, mode or grid ends the console with a message and exit 1
  // (2 for a flag it does not know), as in run_experiment.
  OptimizationMode mode = OptimizationMode::kTwoTier;
  std::optional<Topology> grid;
  try {
    const Flags flags = Flags::Parse(argc, argv);
    const std::size_t side = PositiveCount(flags, "side", 4);
    const std::string mode_name = flags.GetString("mode", "ttmqo");
    if (ReportUnreadFlags(flags)) return 2;
    const auto parsed = ParseOptimizationMode(mode_name);
    if (!parsed) {
      throw std::invalid_argument("unknown --mode '" + mode_name +
                                  "' (baseline|bs|innet|ttmqo)");
    }
    mode = *parsed;
    grid.emplace(Topology::Grid(side));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "query_console: %s\n", e.what());
    return 1;
  }
  const Topology& topology = *grid;
  Network network(topology, RadioParams{}, ChannelParams{}, 1);
  const CorrelatedFieldModel field(11);
  ConsoleSink sink;
  TtmqoOptions options;
  options.mode = mode;
  TtmqoEngine engine(network, field, &sink, options);

  std::printf("ttmqo console: %zu-node grid, mode=%s.  Type 'help'.\n",
              topology.size(), std::string(OptimizationModeName(mode)).c_str());

  QueryId next_id = 1;
  std::string line;
  while (std::getline(std::cin, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream in(line);
    std::string command;
    if (!(in >> command)) continue;
    try {
      if (command == "quit" || command == "exit") {
        break;
      } else if (command == "help") {
        PrintHelp();
      } else if (command == "submit") {
        std::string sql;
        std::getline(in, sql);
        const Query query = ParseQuery(next_id, sql);
        engine.SubmitQuery(query);
        std::printf("query %u: %s\n", next_id, query.ToSql().c_str());
        ++next_id;
      } else if (command == "terminate") {
        QueryId id = 0;
        if (!(in >> id)) throw std::invalid_argument("terminate <id>");
        engine.TerminateQuery(id);
        std::printf("query %u terminated\n", id);
      } else if (command == "run") {
        double seconds = 0;
        if (!(in >> seconds) || seconds <= 0) {
          throw std::invalid_argument("run <seconds>");
        }
        network.sim().RunUntil(network.sim().Now() +
                               static_cast<SimDuration>(seconds * 1000.0));
        std::printf("t = %.1fs\n",
                    static_cast<double>(network.sim().Now()) / 1000.0);
      } else if (command == "synthetics") {
        if (engine.optimizer() == nullptr) {
          std::printf("mode '%s' does not rewrite queries\n",
                      std::string(engine.name()).c_str());
        } else {
          for (const SyntheticQuery* sq : engine.optimizer()->Synthetics()) {
            std::printf("  #%u %s  <- serves", sq->query.id(),
                        sq->query.ToSql().c_str());
            for (const auto& [uid, uq] : sq->members) {
              std::printf(" %u", uid);
            }
            std::printf("\n");
          }
          std::printf("benefit ratio %.0f%%\n", engine.BenefitRatio() * 100);
        }
      } else if (command == "stats") {
        const auto now = std::max<SimTime>(network.sim().Now(), 1);
        std::printf("%s\n", RunSummary::FromLedger(network.ledger(), now)
                                .ToString()
                                .c_str());
      } else {
        std::printf("unknown command '%s'\n", command.c_str());
        PrintHelp();
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  return 0;
}
