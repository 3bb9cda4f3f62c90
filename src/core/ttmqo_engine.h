// The complete TTMQO system (Figure 1): user queries enter at the base
// station, tier 1 rewrites them into synthetic queries, the network runs
// them under tier 2, and synthetic results are mapped back to per-user
// answers.
//
// The engine exposes the four configurations the evaluation compares
// (Section 4.2):
//
//   kBaseline        — TinyDB alone: user queries run uncooperatively.
//   kBaseStationOnly — tier 1 rewriting; synthetic queries run on TinyDB.
//   kInNetworkOnly   — user queries injected unchanged; tier 2 runs them.
//   kTwoTier         — both tiers (the full TTMQO scheme).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string_view>

#include "core/bs/cost_model.h"
#include "core/bs/result_mapper.h"
#include "core/bs/rewriter.h"
#include "core/innet/innet_engine.h"
#include "net/network.h"
#include "query/engine.h"
#include "sensing/field_model.h"
#include "tinydb/tinydb_engine.h"

namespace ttmqo {

/// Which optimization tiers are active.
enum class OptimizationMode {
  kBaseline,
  kBaseStationOnly,
  kInNetworkOnly,
  kTwoTier,
};

/// Display name of a mode ("baseline", "bs-only", ...).
std::string_view OptimizationModeName(OptimizationMode mode);

/// Name of a mode as flags and sweep specs spell it: "baseline", "bs",
/// "innet" or "ttmqo".
std::string_view ShortModeName(OptimizationMode mode);

/// The mode whose short name is `name`; nullopt for any other text.
std::optional<OptimizationMode> ParseOptimizationMode(std::string_view name);

/// Configuration of a `TtmqoEngine`.
struct TtmqoOptions {
  OptimizationMode mode = OptimizationMode::kTwoTier;
  /// Tier-1 termination aggressiveness (Algorithm 2); 0.6 per the paper.
  double alpha = 0.6;
  /// Tier-1 candidate search strategy: the synthetic-query index with
  /// memoization and pruning (default), or the naive full scan used as the
  /// differential-test oracle.  Decisions are identical either way.
  bool tier1_use_index = true;
  /// Options of the in-network engine (the baseline has none).
  InNetOptions innet;
};

/// The user-facing engine.
class TtmqoEngine final : public QueryEngine {
 public:
  /// `network`, `field` and `user_sink` must outlive the engine.  The
  /// engine's decision events ("engine.*", "tier1.*", "tier2.*") go to the
  /// network's trace sink; the optimizer is wired to it only when the
  /// network is already tracing here, so an untraced optimizer keeps a
  /// null sink and skips its trace-only work.  `user_sink` receives each
  /// answer while the engine walks a synthetic query's members, so it must
  /// not submit or terminate queries on this engine from `OnResult`
  /// (either throws); it can schedule the call on the simulator instead.
  TtmqoEngine(Network& network, const FieldModel& field,
              ResultSink* user_sink, TtmqoOptions options = {});

  /// Submits a user query (Algorithm 1 runs in rewriting modes).
  void SubmitQuery(const Query& query) override;

  /// Terminates a user query (Algorithm 2 runs in rewriting modes).
  void TerminateQuery(QueryId id) override;

  std::string_view name() const override;

  /// The tier-1 optimizer; nullptr when the mode does not rewrite.
  const BaseStationOptimizer* optimizer() const { return optimizer_.get(); }

  /// Number of network (synthetic) queries currently running.
  std::size_t NumNetworkQueries() const;

  /// Number of active user queries.
  std::size_t NumUserQueries() const { return users_.size(); }

  /// Tier-1 benefit ratio: TotalBenefit / TotalUserCost (0 when the mode
  /// does not rewrite or no queries run).
  double BenefitRatio() const;

  /// The cost model (exposes evaluation counters for observability).
  const CostModel& cost_model() const { return cost_model_; }

  /// The tier-2 in-network engine (exposes ARQ/repair counters for
  /// observability); nullptr when the inner engine is a different kind.
  const InNetworkEngine* innet_engine() const {
    return dynamic_cast<const InNetworkEngine*>(inner_.get());
  }

 private:
  struct UserState {
    explicit UserState(Query q) : query(std::move(q)) {}
    Query query;
    SimTime submitted_at = 0;
  };

  /// Adapter: receives network-query results from the inner engine.
  class NetworkSink final : public ResultSink {
   public:
    explicit NetworkSink(TtmqoEngine* owner) : owner_(owner) {}
    void OnResult(EpochResult result) override {
      owner_->OnNetworkResult(std::move(result));
    }

   private:
    TtmqoEngine* owner_;
  };

  bool Rewriting() const {
    return options_.mode == OptimizationMode::kBaseStationOnly ||
           options_.mode == OptimizationMode::kTwoTier;
  }

  void ApplyActions(const BaseStationOptimizer::Actions& actions);
  void OnNetworkResult(EpochResult result);
  void EmitToUser(EpochResult result);

  Network& network_;
  ResultSink* user_sink_;
  TtmqoOptions options_;
  CostModel cost_model_;
  NetworkSink network_sink_;
  std::unique_ptr<BaseStationOptimizer> optimizer_;
  std::unique_ptr<QueryEngine> inner_;
  std::map<QueryId, UserState> users_;
  /// True while the user sink holds an answer.
  bool delivering_ = false;
};

}  // namespace ttmqo
