#include "core/ttmqo_engine.h"

#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "util/check.h"
#include "util/mathx.h"

namespace ttmqo {

std::string_view OptimizationModeName(OptimizationMode mode) {
  switch (mode) {
    case OptimizationMode::kBaseline:
      return "baseline";
    case OptimizationMode::kBaseStationOnly:
      return "bs-only";
    case OptimizationMode::kInNetworkOnly:
      return "innet-only";
    case OptimizationMode::kTwoTier:
      return "ttmqo";
  }
  Check(false, "unknown optimization mode");
  return "";
}

TtmqoEngine::TtmqoEngine(Network& network, const FieldModel& field,
                         ResultSink* user_sink, TtmqoOptions options)
    : network_(network),
      user_sink_(user_sink),
      options_(options),
      cost_model_(network.topology(), network.radio(), selectivity_),
      network_sink_(this) {
  if (Rewriting()) {
    BaseStationOptimizer::Options opt;
    opt.alpha = options_.alpha;
    opt.use_index = options_.tier1_use_index;
    optimizer_ =
        std::make_unique<BaseStationOptimizer>(cost_model_, opt);
    // The optimizer has no clock; the network stamps its events.  With a
    // sink set, Algorithm 2 derives the canonical query on every
    // termination, so an untraced run leaves the optimizer's sink null.
    if (network.tracing()) optimizer_->SetTraceSink(&network);
  }
  const bool innet = options_.mode == OptimizationMode::kInNetworkOnly ||
                     options_.mode == OptimizationMode::kTwoTier;
  if (innet) {
    inner_ = std::make_unique<InNetworkEngine>(network, field, &network_sink_,
                                               options_.innet);
  } else {
    inner_ = std::make_unique<TinyDbEngine>(network, field, &network_sink_);
  }
}

std::string_view TtmqoEngine::name() const {
  return OptimizationModeName(options_.mode);
}

void TtmqoEngine::SubmitQuery(const Query& query) {
  obs::RecordFlight("engine.submit", network_.sim().Now(),
                    static_cast<std::int64_t>(query.id()));
  CheckArg(!users_.contains(query.id()), "TtmqoEngine: duplicate user query");
  UserState state(query);
  state.submitted_at = network_.sim().Now();
  users_.emplace(query.id(), std::move(state));
  if (network_.tracing()) {
    network_.Emit(TraceEvent("engine.user_submit")
                      .With("query", static_cast<std::int64_t>(query.id()))
                      .With("epoch_ms",
                            static_cast<std::int64_t>(query.epoch()))
                      .With("active_users",
                            static_cast<std::int64_t>(users_.size())));
  }

  // The lifetime clause (FOR <ms>) self-terminates the query.
  if (query.lifetime() > 0) {
    const QueryId id = query.id();
    network_.sim().ScheduleAfter(query.lifetime(), [this, id]() {
      if (users_.contains(id)) TerminateQuery(id);
    });
  }

  if (!Rewriting()) {
    inner_->SubmitQuery(query);
    return;
  }
  ApplyActions(optimizer_->InsertUserQuery(query));
}

void TtmqoEngine::TerminateQuery(QueryId id) {
  obs::RecordFlight("engine.terminate", network_.sim().Now(),
                    static_cast<std::int64_t>(id));
  const auto it = users_.find(id);
  CheckArg(it != users_.end(), "TtmqoEngine: terminating unknown user query");
  users_.erase(it);
  if (network_.tracing()) {
    network_.Emit(TraceEvent("engine.user_terminate")
                      .With("query", static_cast<std::int64_t>(id))
                      .With("active_users",
                            static_cast<std::int64_t>(users_.size())));
  }

  if (!Rewriting()) {
    inner_->TerminateQuery(id);
    return;
  }
  ApplyActions(optimizer_->TerminateUserQuery(id));
}

void TtmqoEngine::ApplyActions(const BaseStationOptimizer::Actions& actions) {
  // Dissemination: retiring superseded synthetic queries from the network
  // and flooding their replacements.
  TTMQO_SPAN("tier2.disseminate");
  // Abort superseded synthetic queries before injecting replacements so the
  // channel is never loaded with both.
  const bool tracing = network_.tracing();
  for (QueryId id : actions.abort) {
    if (tracing) {
      network_.Emit(TraceEvent("engine.synthetic_abort")
                        .With("synthetic", static_cast<std::int64_t>(id)));
    }
    inner_->TerminateQuery(id);
  }
  for (const Query& query : actions.inject) {
    if (tracing) {
      network_.Emit(
          TraceEvent("engine.synthetic_inject")
              .With("synthetic", static_cast<std::int64_t>(query.id()))
              .With("epoch_ms", static_cast<std::int64_t>(query.epoch())));
    }
    inner_->SubmitQuery(query);
  }
}

std::size_t TtmqoEngine::NumNetworkQueries() const {
  if (Rewriting()) return optimizer_->NumSynthetic();
  return users_.size();
}

double TtmqoEngine::BenefitRatio() const {
  if (!Rewriting()) return 0.0;
  const double user_cost = optimizer_->TotalUserCost();
  if (user_cost <= 0.0) return 0.0;
  return optimizer_->TotalBenefit() / user_cost;
}

void TtmqoEngine::OnNetworkResult(const EpochResult& result) {
  if (options_.learn_statistics && Rewriting() &&
      result.kind == QueryKind::kAcquisition) {
    const SyntheticQuery* sq = optimizer_->FindSynthetic(result.query);
    if (sq != nullptr) {
      for (const Reading& row : result.rows) {
        Reading unbiased(row.node(), row.time());
        for (Attribute attr : kSensedAttributes) {
          // A constrained attribute's observed values are a filtered
          // sample; skip them to keep the histogram unbiased.
          if (!row.Has(attr)) continue;
          if (sq->query.predicates().ConstraintOn(attr).has_value()) continue;
          unbiased.Set(attr, row.GetOrThrow(attr));
        }
        selectivity_.shared().Observe(unbiased);
        // Also maintain the per-routing-level distributions of Section
        // 3.1.2 (the paper's experiments collapse them into one; keeping
        // both costs little and sharpens Eq. 1 when fields are spatially
        // correlated).
        selectivity_
            .ForLevel(network_.topology().HopLevels()[row.node()])
            .Observe(unbiased);
      }
    }
  }
  if (!Rewriting()) {
    // Network queries are the user queries; deliver directly (the inner
    // engine already closed the epoch at t + epoch).
    if (users_.contains(result.query)) EmitToUser(result);
    return;
  }
  const SyntheticQuery* sq = optimizer_->FindSynthetic(result.query);
  if (sq == nullptr) return;  // result raced with an abort
  for (EpochResult& mapped : MapSyntheticResult(result, *sq)) {
    const auto user_it = users_.find(mapped.query);
    if (user_it == users_.end()) continue;
    const UserState& user = user_it->second;
    // Skip epochs from before the user existed: a covered query joining an
    // already-running synthetic query must not receive past answers.
    if (mapped.epoch_time <
        AlignUp(user.submitted_at + 1, user.query.epoch())) {
      continue;
    }
    // The user observes its answer at the end of its own epoch, exactly as
    // under the baseline (the synthetic query may close earlier because it
    // runs at the GCD of the member epochs).
    const SimTime deliver_at = mapped.epoch_time + user.query.epoch();
    const QueryId uid = mapped.query;
    if (deliver_at <= network_.sim().Now()) {
      EmitToUser(std::move(mapped));
      continue;
    }
    network_.sim().ScheduleAt(
        deliver_at, [this, uid, mapped = std::move(mapped)]() mutable {
          if (!users_.contains(uid)) return;  // terminated meanwhile
          EmitToUser(std::move(mapped));
        });
  }
}

void TtmqoEngine::EmitToUser(EpochResult result) {
  if (user_sink_ != nullptr) user_sink_->OnResult(result);
}

}  // namespace ttmqo
