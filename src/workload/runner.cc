#include "workload/runner.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "net/network.h"
#include "net/topology.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "util/check.h"
#include "util/mathx.h"

namespace ttmqo {
namespace {

/// Copies the run's end-of-run measurements into the registry: the radio
/// counts of `network`'s ledger, the summary, and the engines' counts.
void ExportRunMetrics(MetricsRegistry& registry, const MetricLabels& labels,
                      const RunResult& run, const TtmqoEngine& engine,
                      const Network& network) {
  // A per-node radio series appears only once its node counted something;
  // the three network-wide fault counters always appear.
  const RadioLedger& ledger = network.ledger();
  std::uint64_t outages = 0;
  std::uint64_t recoveries = 0;
  for (NodeId node = 0; node < ledger.size(); ++node) {
    const NodeRadioStats& s = ledger.StatsOf(node);
    outages += s.outages;
    recoveries += s.recoveries;
    MetricLabels with_node = labels;
    with_node.emplace_back("node", std::to_string(node));
    for (std::size_t cls = 0; cls < kNumMessageClasses; ++cls) {
      if (s.sent_by_class[cls] == 0) continue;
      MetricLabels with_class = with_node;
      const auto name = MessageClassName(static_cast<MessageClass>(cls));
      with_class.emplace_back("class", std::string(name));
      registry.GetCounter("net_tx_total", with_class)
          .Add(static_cast<double>(s.sent_by_class[cls]));
      registry.GetCounter("net_tx_ms_total", with_class)
          .Add(s.transmit_ms_by_class[cls]);
    }
    if (s.retransmissions > 0) {
      registry.GetCounter("net_retx_total", with_node)
          .Add(static_cast<double>(s.retransmissions));
      registry.GetCounter("net_retx_ms_total", with_node).Add(s.retransmit_ms);
    }
    const auto count = [&](const char* name, std::uint64_t n) {
      if (n > 0) {
        registry.GetCounter(name, with_node).Add(static_cast<double>(n));
      }
    };
    count("net_drops_total", s.drops);
    count("net_sleep_transitions_total", s.sleep_transitions);
    count("net_link_drops_total", s.link_drops);
  }
  registry.GetCounter("net_node_failures_total", labels)
      .Add(static_cast<double>(network.NumFailed()));
  registry.GetCounter("net_node_down_total", labels)
      .Add(static_cast<double>(outages));
  registry.GetCounter("net_node_recovered_total", labels)
      .Add(static_cast<double>(recoveries));

  registry.GetGauge("run_avg_transmission_fraction", labels)
      .Set(run.summary.avg_transmission_fraction);
  registry.GetGauge("run_avg_sleep_fraction", labels)
      .Set(run.summary.avg_sleep_fraction);
  registry.GetGauge("run_total_transmit_ms", labels)
      .Set(run.summary.total_transmit_ms);
  registry.GetGauge("run_elapsed_ms", labels)
      .Set(static_cast<double>(run.summary.elapsed_ms));
  registry.GetGauge("run_avg_network_queries", labels)
      .Set(run.avg_network_queries);
  registry.GetGauge("run_avg_benefit_ratio", labels)
      .Set(run.avg_benefit_ratio);
  registry.GetGauge("run_peak_user_queries", labels)
      .Set(static_cast<double>(run.peak_user_queries));
  registry.GetCounter("run_messages_total", labels)
      .Add(static_cast<double>(run.summary.total_messages));
  registry.GetCounter("run_retransmissions_total", labels)
      .Add(static_cast<double>(run.summary.retransmissions));
  registry.GetGauge("run_delivery_completeness_avg", labels)
      .Set(run.summary.AvgDeliveryCompleteness());
  registry.GetGauge("run_delivery_completeness_min", labels)
      .Set(run.summary.MinDeliveryCompleteness());
  double expected = 0.0;
  double delivered = 0.0;
  for (const auto& [id, d] : run.summary.delivery) {
    expected += static_cast<double>(d.expected);
    delivered += static_cast<double>(d.delivered);
  }
  registry.GetGauge("run_rows_expected", labels).Set(expected);
  registry.GetGauge("run_rows_delivered", labels).Set(delivered);
  // Reliability metrics appear only when the run produced them, so a
  // registry shared with off runs keeps its pre-reliability shape.
  if (!run.summary.coverage.empty()) {
    registry.GetGauge("run_coverage_avg", labels)
        .Set(run.summary.AvgCoverage());
    registry.GetGauge("run_coverage_min", labels)
        .Set(run.summary.MinCoverage());
    registry.GetGauge("run_epochs_partial", labels)
        .Set(static_cast<double>(run.summary.PartialEpochs()));
  }
  if (run.summary.control_messages > 0) {
    registry.GetCounter("run_control_messages_total", labels)
        .Add(static_cast<double>(run.summary.control_messages));
  }
  const InNetworkEngine* innet = engine.innet_engine();
  if (innet != nullptr && innet->arq() != nullptr) {
    const ArqTransport& arq = *innet->arq();
    registry.GetCounter("arq_sends_total", labels)
        .Add(static_cast<double>(arq.sends()));
    registry.GetCounter("arq_retransmits_total", labels)
        .Add(static_cast<double>(arq.retransmits()));
    registry.GetCounter("arq_acks_sent_total", labels)
        .Add(static_cast<double>(arq.acks_sent()));
    registry.GetCounter("arq_duplicates_dropped_total", labels)
        .Add(static_cast<double>(arq.duplicates_dropped()));
    registry.GetCounter("arq_give_ups_total", labels)
        .Add(static_cast<double>(arq.give_ups()));
    registry.GetCounter("arq_quarantines_total", labels)
        .Add(static_cast<double>(arq.quarantines()));
    registry.GetCounter("arq_repair_requests_total", labels)
        .Add(static_cast<double>(innet->repair_requests()));
    registry.GetCounter("arq_repair_replies_total", labels)
        .Add(static_cast<double>(innet->repair_replies()));
    registry.GetCounter("arq_late_drops_total", labels)
        .Add(static_cast<double>(innet->late_drops()));
  }

  registry.GetCounter("tier1_cost_evaluations_total", labels)
      .Add(static_cast<double>(engine.cost_model().cost_evaluations()));
  registry.GetCounter("tier1_benefit_evaluations_total", labels)
      .Add(static_cast<double>(engine.cost_model().benefit_evaluations()));
  if (engine.optimizer() != nullptr) {
    const auto& d = engine.optimizer()->decision_stats();
    const auto decision = [&](const char* action, std::uint64_t count) {
      MetricLabels with_action = labels;
      with_action.emplace_back("action", action);
      registry.GetCounter("tier1_decisions_total", with_action)
          .Add(static_cast<double>(count));
    };
    decision("covered", d.covered);
    decision("merged", d.merged);
    decision("standalone", d.standalone);
    decision("retired", d.retired);
    decision("rebuilt", d.rebuilt);
    decision("kept", d.kept);
    const auto& ix = engine.optimizer()->index_stats();
    registry.GetCounter("tier1_index_coverage_hits_total", labels)
        .Add(static_cast<double>(ix.coverage_hits));
    registry.GetCounter("tier1_index_memo_hits_total", labels)
        .Add(static_cast<double>(ix.memo_hits));
    registry.GetCounter("tier1_index_pruned_candidates_total", labels)
        .Add(static_cast<double>(ix.pruned_candidates));
    registry.GetCounter("tier1_index_exact_evaluations_total", labels)
        .Add(static_cast<double>(ix.exact_evaluations));
    registry.GetCounter("tier1_index_rebuilds_total", labels)
        .Add(static_cast<double>(ix.index_rebuilds));
  }
}

/// Fills `run.summary.delivery` from an omniscient oracle: for each user
/// query and epoch tick inside its lifetime, a row is *expected* from every
/// node that is reachable under the fault plan at the tick and whose field
/// reading matches the predicates — exactly the engines' own production
/// criterion.  Delivered counts come from the base station's answer log.
/// Nodes that are up but never learned a query (disseminated during their
/// outage) therefore count against completeness, which is the point.
void FillDeliveryCompleteness(RunResult& run, const RunConfig& config,
                              const std::vector<WorkloadEvent>& schedule,
                              const Topology& topology,
                              const FieldModel& field) {
  const FaultPlan& plan = config.faults;
  std::map<QueryId, SimTime> terminate_at;
  for (const WorkloadEvent& event : schedule) {
    if (event.kind == WorkloadEvent::Kind::kTerminate) {
      terminate_at[event.id] = event.time;
    }
  }
  for (const WorkloadEvent& event : schedule) {
    if (event.kind != WorkloadEvent::Kind::kSubmit) continue;
    const Query& query = *event.query;
    QueryDelivery delivery;
    const auto tt = terminate_at.find(query.id());
    const auto attrs = query.AcquiredAttributes();
    for (SimTime t = AlignUp(event.time + 1, query.epoch());
         t + query.epoch() <= config.duration_ms &&
         (tt == terminate_at.end() || t + query.epoch() < tt->second);
         t += query.epoch()) {
      const EpochResult* result = run.results.Find(query.id(), t);
      if (query.kind() == QueryKind::kAcquisition) {
        for (NodeId node = 1; node < topology.size(); ++node) {
          if (!plan.AliveAt(node, t)) continue;
          const Reading sample = field.SampleReading(
              node, topology.PositionOf(node), attrs, t);
          if (query.predicates().Matches(sample)) ++delivery.expected;
        }
        if (result != nullptr) {
          delivery.delivered +=
              static_cast<std::uint64_t>(result->rows.size());
        }
      } else {
        bool any_match = false;
        for (NodeId node = 1; node < topology.size() && !any_match; ++node) {
          if (!plan.AliveAt(node, t)) continue;
          const Reading sample = field.SampleReading(
              node, topology.PositionOf(node), attrs, t);
          any_match = query.predicates().Matches(sample);
        }
        if (any_match) ++delivery.expected;
        if (result != nullptr) {
          for (const auto& [spec, value] : result->aggregates) {
            if (value.has_value()) {
              ++delivery.delivered;
              break;
            }
          }
        }
      }
    }
    run.summary.delivery[query.id()] = delivery;
  }
}

}  // namespace

std::unique_ptr<FieldModel> MakeFieldModel(FieldKind kind,
                                           std::uint64_t master_seed) {
  const std::uint64_t seed = master_seed ^ 0xf1e1dULL;
  switch (kind) {
    case FieldKind::kUniform:
      return std::make_unique<UniformFieldModel>(seed);
    case FieldKind::kCorrelated:
      return std::make_unique<CorrelatedFieldModel>(seed);
    case FieldKind::kHotspot:
      return std::make_unique<HotspotFieldModel>(seed,
                                                 HotspotFieldModel::Params{});
  }
  Check(false, "unknown field kind");
  return nullptr;
}

RunResult RunExperiment(const RunConfig& config,
                        const std::vector<WorkloadEvent>& schedule) {
  CheckArg(config.duration_ms > 0, "RunExperiment: duration must be positive");
  obs::RecordFlight("run.start", 0,
                    static_cast<std::int64_t>(config.seed),
                    static_cast<std::int64_t>(schedule.size()), 0,
                    OptimizationModeName(config.mode).data());

  // The setup phase ends mid-function (everything before RunUntil), so it
  // cannot be a plain scoped macro; the optional closes it explicitly.
  std::optional<obs::SpanScope> setup_span;
  setup_span.emplace("phase.setup", /*with_cpu=*/true);

  const Topology topology =
      config.topology == TopologyKind::kGrid
          ? Topology::Grid(config.grid_side, config.grid_spacing_feet,
                           config.radio.range_feet)
          : Topology::RandomUniform(config.random_nodes,
                                    config.random_side_feet,
                                    config.radio.range_feet,
                                    config.seed ^ 0x70b0ULL);
  // Validate the whole fault schedule up front: a fault targeting the base
  // station, a dead node, or a window outside the run fails here with a
  // clear message instead of throwing from inside the event loop.
  config.faults.Validate(topology, config.duration_ms);
  Network network(topology, config.radio, config.channel, config.seed);
  const std::unique_ptr<FieldModel> field =
      MakeFieldModel(config.field, config.seed);

  // Observability hooks: the trace sink and the per-epoch sampler.  The
  // sink goes in before the engine is built, which wires its optimizer to
  // the network only when the network is tracing.  The registry is filled
  // once, at run end.
  network.SetTraceSink(config.obs.trace);
  if (config.obs.sampler != nullptr) {
    config.obs.sampler->Start(network, config.obs.sample_period_ms);
  }

  RunResult run;
  TtmqoOptions options;
  options.mode = config.mode;
  options.alpha = config.alpha;
  options.tier1_use_index = config.tier1_use_index;
  options.innet = config.innet;
  ApplyReliabilityProfile(config.reliability, options.innet);
  if (options.innet.arq.seed == 0) {
    // Fork the ARQ jitter streams off the master seed so retry schedules
    // are a pure function of the run configuration.
    options.innet.arq.seed = config.seed ^ 0xa59aULL;
  }
  TtmqoEngine engine(network, *field, &run.results, options);
  if (network.tracing()) {
    network.Emit(
        TraceEvent("run.start")
            .With("mode", std::string(OptimizationModeName(config.mode)))
            .With("nodes", static_cast<std::int64_t>(topology.size()))
            .With("duration_ms", config.duration_ms)
            .With("seed", static_cast<std::int64_t>(config.seed)));
  }

  if (config.maintenance_period_ms > 0) {
    network.StartMaintenanceBeacons(config.maintenance_period_ms,
                                    config.maintenance_payload_bytes);
  }

  // Schedule the workload.
  std::size_t active_users = 0;
  for (const WorkloadEvent& event : schedule) {
    CheckArg(event.time >= 0 && event.time < config.duration_ms,
             "RunExperiment: workload event outside the run window");
    if (event.kind == WorkloadEvent::Kind::kSubmit) {
      CheckArg(event.query.has_value(),
               "RunExperiment: submit event without a query");
      const Query query = *event.query;
      network.sim().ScheduleAt(event.time, [&engine, query, &active_users,
                                            &run]() {
        engine.SubmitQuery(query);
        ++active_users;
        run.peak_user_queries = std::max(run.peak_user_queries, active_users);
      });
    } else {
      const QueryId id = event.id;
      network.sim().ScheduleAt(event.time, [&engine, id, &active_users]() {
        engine.TerminateQuery(id);
        --active_users;
      });
    }
  }

  // Fault injection (crashes, outages, link loss, partitions).
  config.faults.ScheduleOn(network);

  // Periodic statistics sampler (time-weighted averages).  The recurring
  // tick lives on this stack frame and reschedules itself through the
  // pooled event slab — one small [this] capture per tick, no allocation.
  struct StatsSampler {
    TtmqoEngine& engine;
    Simulator& sim;
    SimDuration period;
    double sum_network_queries = 0.0;
    double sum_benefit_ratio = 0.0;
    std::uint64_t samples = 0;

    void Tick() {
      if (engine.NumUserQueries() > 0) {
        sum_network_queries += static_cast<double>(engine.NumNetworkQueries());
        sum_benefit_ratio += engine.BenefitRatio();
        ++samples;
      }
      sim.ScheduleAfter(period, [this] { Tick(); });
    }
  };
  StatsSampler stats{engine, network.sim(), config.stats_sample_period_ms};
  if (config.stats_sample_period_ms > 0) {
    network.sim().ScheduleAfter(config.stats_sample_period_ms,
                                [&stats] { stats.Tick(); });
  }

  setup_span.reset();
  {
    TTMQO_PHASE_SPAN("phase.event_loop");
    network.sim().RunUntil(config.duration_ms);
  }

  TTMQO_PHASE_SPAN("phase.summarize");
  // Flush open accounting spans (e.g. a node still asleep, or failed while
  // asleep) so the summary sees the whole run.
  network.FinalizeAccounting();

  run.summary =
      RunSummary::FromLedger(network.ledger(), config.duration_ms);
  run.avg_network_queries =
      stats.samples > 0
          ? stats.sum_network_queries / static_cast<double>(stats.samples)
          : 0.0;
  run.avg_benefit_ratio =
      stats.samples > 0
          ? stats.sum_benefit_ratio / static_cast<double>(stats.samples)
          : 0.0;
  run.final_benefit_ratio = engine.BenefitRatio();
  run.events_executed = network.sim().events_executed();
  FillDeliveryCompleteness(run, config, schedule, topology, *field);

  // Coverage accounting: only epochs the engine annotated (arq profile)
  // contribute, so off summaries stay byte-identical to the seed.
  for (const EpochResult* result : run.results.All()) {
    if (result->coverage < 0) continue;
    QueryCoverage& coverage = run.summary.coverage[result->query];
    ++coverage.epochs;
    if (result->coverage < 1.0) ++coverage.partial_epochs;
    coverage.coverage_sum += result->coverage;
    coverage.min_coverage = std::min(coverage.min_coverage, result->coverage);
  }

  if (config.obs.registry != nullptr) {
    ExportRunMetrics(*config.obs.registry, config.obs.labels, run, engine,
                     network);
  }
  if (network.tracing()) {
    // RunUntil left the clock at the run's end, so this stamps
    // `duration_ms`.
    network.Emit(
        TraceEvent("run.end")
            .With("mode", std::string(OptimizationModeName(config.mode)))
            .With("avg_tx_fraction", run.summary.avg_transmission_fraction)
            .With("messages",
                  static_cast<std::int64_t>(run.summary.total_messages))
            .With("retransmissions",
                  static_cast<std::int64_t>(run.summary.retransmissions))
            .With("results", static_cast<std::int64_t>(run.results.size())));
  }
  obs::RecordFlight("run.end", config.duration_ms,
                    static_cast<std::int64_t>(run.events_executed),
                    static_cast<std::int64_t>(run.summary.total_messages));
  return run;
}

}  // namespace ttmqo
