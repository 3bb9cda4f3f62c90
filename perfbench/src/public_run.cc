#include "public_run.h"

#include <memory>
#include <optional>

#include "net/network.h"
#include "net/topology.h"
#include "obs/span.h"

namespace perfbench {
namespace {

using ttmqo::obs::NowNs;
using ttmqo::obs::SpanScope;

/// A deployment set up through the public calls, ready to run.
class Deployment {
 public:
  Deployment(const RunSpec& spec, ttmqo::ResultSink* sink, CallSamples* calls)
      : spec_(spec), calls_(calls) {
    const ttmqo::RunConfig& config = spec.config;
    const std::uint64_t start = NowNs();
    {
      SpanScope span("bench.topology");
      topology_.emplace(ttmqo::Topology::Grid(
          config.grid_side, config.grid_spacing_feet, config.radio.range_feet));
    }
    {
      SpanScope span("bench.fault.validate");
      config.faults.Validate(*topology_, config.duration_ms);
    }
    {
      SpanScope span("bench.network");
      network_.emplace(*topology_, config.radio, config.channel, config.seed);
    }
    {
      SpanScope span("bench.field");
      field_ = ttmqo::MakeFieldModel(config.field, config.seed);
    }
    {
      SpanScope span("bench.engine");
      ttmqo::TtmqoOptions options;
      options.mode = config.mode;
      options.alpha = config.alpha;
      options.tier1_use_index = config.tier1_use_index;
      options.innet = config.innet;
      ttmqo::ApplyReliabilityProfile(config.reliability, options.innet);
      if (options.innet.arq.seed == 0) {
        options.innet.arq.seed = config.seed ^ 0xa59aULL;
      }
      engine_.emplace(*network_, *field_, sink, options);
    }
    if (config.maintenance_period_ms > 0) {
      SpanScope span("bench.beacons");
      network_->StartMaintenanceBeacons(config.maintenance_period_ms,
                                        config.maintenance_payload_bytes);
    }
    {
      SpanScope span("bench.workload.schedule");
      for (const ttmqo::WorkloadEvent& event : spec.schedule) {
        if (event.kind == ttmqo::WorkloadEvent::Kind::kSubmit) {
          const ttmqo::Query* query = &*event.query;
          network_->sim().ScheduleAt(event.time,
                                     [this, query] { Submit(*query); });
        } else {
          const ttmqo::QueryId id = event.id;
          network_->sim().ScheduleAt(event.time, [this, id] { Terminate(id); });
        }
      }
    }
    {
      SpanScope span("bench.fault.schedule");
      config.faults.ScheduleOn(*network_);
    }
    if (config.stats_sample_period_ms > 0) {
      network_->sim().ScheduleAfter(config.stats_sample_period_ms,
                                    [this] { StatsTick(); });
    }
    setup_ns_ = NowNs() - start;
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  std::uint64_t setup_ns() const { return setup_ns_; }

  /// Runs the event loop and summarizes the ledger into `run`.
  void Run(PublicRun& run) {
    run.times.setup_ns = setup_ns_;
    {
      SpanScope span("bench.sim.loop");
      const std::uint64_t start = NowNs();
      network_->sim().RunUntil(spec_.config.duration_ms);
      run.times.loop_ns = NowNs() - start;
    }
    {
      SpanScope span("bench.summarize");
      const std::uint64_t start = NowNs();
      network_->FinalizeAccounting();
      run.summary = ttmqo::RunSummary::FromLedger(network_->ledger(),
                                                  spec_.config.duration_ms);
      run.times.summarize_ns = NowNs() - start;
    }
    ReadCounters(run.counters);
  }

 private:
  void Submit(const ttmqo::Query& query) {
    const std::uint64_t start = calls_ != nullptr ? NowNs() : 0;
    {
      SpanScope span("bench.bs.submit");
      engine_->SubmitQuery(query);
    }
    if (calls_ != nullptr) calls_->submit_ns.push_back(NowNs() - start);
  }

  void Terminate(ttmqo::QueryId id) {
    const std::uint64_t start = calls_ != nullptr ? NowNs() : 0;
    {
      SpanScope span("bench.bs.terminate");
      engine_->TerminateQuery(id);
    }
    if (calls_ != nullptr) calls_->terminate_ns.push_back(NowNs() - start);
  }

  /// `RunExperiment`'s statistics tick: the same events at the same times,
  /// so both paths execute the same event count.
  void StatsTick() {
    if (engine_->NumUserQueries() > 0) {
      network_queries_sum_ += static_cast<double>(engine_->NumNetworkQueries());
      ++stats_samples_;
    }
    network_->sim().ScheduleAfter(spec_.config.stats_sample_period_ms,
                                  [this] { StatsTick(); });
  }

  void ReadCounters(LayerCounters& c) const {
    const ttmqo::RadioLedger& ledger = network_->ledger();
    c.mode = spec_.config.mode;
    c.events = network_->sim().events_executed();
    c.messages = ledger.TotalMessages();
    c.retransmissions = ledger.TotalRetransmissions();
    c.link_drops = network_->link_drops();
    for (ttmqo::NodeId node = 0; node < ledger.size(); ++node) {
      c.abandoned += ledger.StatsOf(node).drops;
    }
    c.cost_evaluations = engine_->cost_model().cost_evaluations();
    c.synthetic_avg = stats_samples_ > 0
                          ? network_queries_sum_ /
                                static_cast<double>(stats_samples_)
                          : 0.0;
    if (const ttmqo::BaseStationOptimizer* bs = engine_->optimizer()) {
      c.decisions = bs->decision_stats();
      c.index = bs->index_stats();
    }
    if (const ttmqo::InNetworkEngine* innet = engine_->innet_engine()) {
      c.duplicates_suppressed = innet->duplicates_suppressed();
      c.late_drops = innet->late_drops();
      c.repair_requests = innet->repair_requests();
      c.repair_replies = innet->repair_replies();
      if (const ttmqo::ArqTransport* arq = innet->arq()) {
        c.arq_sends = arq->sends();
        c.arq_retransmits = arq->retransmits();
        c.arq_acks = arq->acks_sent();
        c.arq_duplicates_dropped = arq->duplicates_dropped();
        c.arq_give_ups = arq->give_ups();
        c.arq_quarantines = arq->quarantines();
      }
    }
  }

  const RunSpec& spec_;
  CallSamples* calls_;
  // Declaration order is teardown order in reverse: the engine goes
  // first, the topology the network refers to goes last.
  std::optional<ttmqo::Topology> topology_;
  std::optional<ttmqo::Network> network_;
  std::unique_ptr<ttmqo::FieldModel> field_;
  std::optional<ttmqo::TtmqoEngine> engine_;
  double network_queries_sum_ = 0.0;
  std::uint64_t stats_samples_ = 0;
  std::uint64_t setup_ns_ = 0;
};

}  // namespace

PublicRun RunPublic(const RunSpec& spec, CallSamples* calls) {
  PublicRun run;
  {
    Deployment deployment(spec, &run.results, calls);
    deployment.Run(run);
  }
  return run;
}

std::uint64_t SetupOnly(const RunSpec& spec) {
  ttmqo::ResultLog discard;
  const Deployment deployment(spec, &discard, nullptr);
  return deployment.setup_ns();
}

}  // namespace perfbench
