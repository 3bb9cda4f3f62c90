#include "layers.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

constexpr double kNsPerS = 1e9;

bool RunsTier2(ttmqo::OptimizationMode mode) {
  return mode == ttmqo::OptimizationMode::kInNetworkOnly ||
         mode == ttmqo::OptimizationMode::kTwoTier;
}

bool Rewrites(ttmqo::OptimizationMode mode) {
  return mode == ttmqo::OptimizationMode::kBaseStationOnly ||
         mode == ttmqo::OptimizationMode::kTwoTier;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void LayerTally::CheckNesting(const std::string& child, double child_ns,
                              const std::string& parent, double parent_ns) {
  if (child_ns <= parent_ns) return;
  Exceedance& e = exceedances_[child + " > " + parent];
  ++e.count;
  e.worst_ratio = std::max(e.worst_ratio, Ratio(child_ns, parent_ns));
}

void LayerTally::AddTracedRun(std::size_t index, const LayerCounters& c,
                              const ttmqo::obs::SpanSnapshot& spans,
                              const CallSamples& calls) {
  std::map<std::string, const ttmqo::obs::SpanStat*> by_name;
  for (const ttmqo::obs::SpanStat& stat : spans.totals) {
    by_name[stat.name] = &stat;
  }
  // Unsampled spans: measured time.  Sampled spans: the scaled estimate.
  const auto measured = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0
                               : static_cast<double>(it->second->total_ns);
  };
  const auto scaled = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end()
               ? 0.0
               : static_cast<double>(it->second->estimated_total_ns);
  };

  auto& v = per_run_.at(index);
  const auto put = [&](const std::string& key, double value) {
    v[key].push_back(value);
  };
  const double loop = measured("bench.sim.loop");
  const double sim_event = scaled("sim.event");
  const double radio = scaled("net.complete_attempt");
  const double deliver = scaled("net.deliver");
  const double bs = measured("bench.bs.submit") + measured("bench.bs.terminate");
  CheckNesting("sim.event (scaled)", sim_event, "bench.sim.loop", loop);
  CheckNesting("net.complete_attempt (scaled)", radio, "bench.sim.loop", loop);
  CheckNesting("net.deliver (scaled)", deliver,
               "net.complete_attempt (scaled)", radio);
  CheckNesting("net.complete_attempt (scaled) + bench.bs.*", radio + bs,
               "bench.sim.loop", loop);
  // What the loop spends outside the radio spans and the tier-1 calls:
  // the engine's timers and ticks plus the event core.  Receive handlers
  // run inside net.deliver and so count as radio time.
  const double residual = std::max(0.0, loop - radio - bs);

  put("events", static_cast<double>(c.events));
  put("loop_ns", loop);
  put("radio_ns", radio);
  put("deliver_ns", deliver);
  put("bs_ns", bs);
  put("tier1_insert_ns", measured("tier1.insert"));
  put("tier1_terminate_ns", measured("tier1.terminate"));
  put("tier2_disseminate_ns", measured("tier2.disseminate"));
  if (RunsTier2(c.mode)) {
    put("innet_self_ns", residual);
    put("innet_events", static_cast<double>(c.events));
  } else {
    put("tinydb_self_ns", residual);
  }
  put("topology_ns", measured("bench.topology"));
  put("network_ns", measured("bench.network") + measured("bench.beacons"));
  put("field_ns", measured("bench.field"));
  put("engine_ns", measured("bench.engine"));
  put("fault_ns",
      measured("bench.fault.validate") + measured("bench.fault.schedule"));
  put("schedule_ns", measured("bench.workload.schedule"));
  put("summarize_ns", measured("bench.summarize"));

  put("messages", static_cast<double>(c.messages));
  put("retransmissions", static_cast<double>(c.retransmissions));
  put("link_drops", static_cast<double>(c.link_drops));
  put("abandoned", static_cast<double>(c.abandoned));
  put("covered", static_cast<double>(c.decisions.covered));
  put("merged", static_cast<double>(c.decisions.merged));
  put("standalone", static_cast<double>(c.decisions.standalone));
  put("retired", static_cast<double>(c.decisions.retired));
  put("rebuilt", static_cast<double>(c.decisions.rebuilt));
  put("kept", static_cast<double>(c.decisions.kept));
  put("cost_evaluations", static_cast<double>(c.cost_evaluations));
  put("memo_hits", static_cast<double>(c.index.memo_hits));
  put("pruned", static_cast<double>(c.index.pruned_candidates));
  put("exact", static_cast<double>(c.index.exact_evaluations));
  if (Rewrites(c.mode)) {
    put("synthetic_avg", c.synthetic_avg);
    put("rewriting_runs", 1.0);
  }
  put("duplicates_suppressed", static_cast<double>(c.duplicates_suppressed));
  put("late_drops", static_cast<double>(c.late_drops));
  put("arq_sends", static_cast<double>(c.arq_sends));
  put("arq_retransmits", static_cast<double>(c.arq_retransmits));
  put("arq_acks", static_cast<double>(c.arq_acks));
  put("arq_duplicates_dropped", static_cast<double>(c.arq_duplicates_dropped));
  put("arq_give_ups", static_cast<double>(c.arq_give_ups));
  put("arq_quarantines", static_cast<double>(c.arq_quarantines));
  put("repair_requests", static_cast<double>(c.repair_requests));
  put("repair_replies", static_cast<double>(c.repair_replies));

  for (const std::uint64_t ns : calls.submit_ns) {
    submit_ns_.push_back(static_cast<double>(ns));
  }
  for (const std::uint64_t ns : calls.terminate_ns) {
    terminate_ns_.push_back(static_cast<double>(ns));
  }
  ++traced_runs_;
}

double LayerTally::Sum(const std::string& key) const {
  double total = 0.0;
  for (const auto& run : per_run_) {
    const auto it = run.find(key);
    if (it != run.end()) total += Median(it->second);
  }
  return total;
}

std::vector<Metric> LayerTally::Metrics() const {
  const auto s = [&](const char* key) { return Sum(key) / kNsPerS; };
  const double messages = Sum("messages");
  const double attempts = messages + Sum("retransmissions");
  return {
      {"net.sim.events", "count", Sum("events")},
      {"net.sim.loop_s", "s", s("loop_ns")},
      {"net.sim.ns_per_event", "ns", Ratio(Sum("loop_ns"), Sum("events"))},
      {"net.radio.messages", "count", messages},
      {"net.radio.retransmissions", "count", Sum("retransmissions")},
      {"net.radio.useful_ratio", "ratio", Ratio(messages, attempts)},
      {"net.radio.link_drops", "count", Sum("link_drops")},
      {"net.radio.abandoned", "count", Sum("abandoned")},
      {"net.radio.busy_s", "s", s("radio_ns")},
      {"net.radio.deliver_s", "s", s("deliver_ns")},
      {"net.topology.build_s", "s", s("topology_ns")},
      {"net.network.build_s", "s", s("network_ns")},
      {"sensing.field.build_s", "s", s("field_ns")},
      {"core.engine.build_s", "s", s("engine_ns")},
      {"fault.setup_s", "s", s("fault_ns")},
      {"workload.schedule_s", "s", s("schedule_ns")},
      {"core.bs.submit_us_p50", "us", Quantile(submit_ns_, 0.50) / 1e3},
      {"core.bs.submit_us_p99", "us", Quantile(submit_ns_, 0.99) / 1e3},
      {"core.bs.terminate_us_p50", "us", Quantile(terminate_ns_, 0.50) / 1e3},
      {"core.bs.terminate_us_p99", "us", Quantile(terminate_ns_, 0.99) / 1e3},
      {"core.bs.busy_s", "s", s("bs_ns")},
      {"core.bs.insert_s", "s", s("tier1_insert_ns")},
      {"core.bs.terminate_s", "s", s("tier1_terminate_ns")},
      {"core.bs.disseminate_s", "s", s("tier2_disseminate_ns")},
      {"core.bs.decisions.covered", "count", Sum("covered")},
      {"core.bs.decisions.merged", "count", Sum("merged")},
      {"core.bs.decisions.standalone", "count", Sum("standalone")},
      {"core.bs.decisions.retired", "count", Sum("retired")},
      {"core.bs.decisions.rebuilt", "count", Sum("rebuilt")},
      {"core.bs.decisions.kept", "count", Sum("kept")},
      {"core.bs.synthetic_avg", "count",
       Ratio(Sum("synthetic_avg"), Sum("rewriting_runs"))},
      {"core.bs.cost_evaluations", "count", Sum("cost_evaluations")},
      {"core.bs.index.memo_hits", "count", Sum("memo_hits")},
      {"core.bs.index.pruned", "count", Sum("pruned")},
      {"core.bs.index.exact", "count", Sum("exact")},
      {"core.innet.self_s", "s", s("innet_self_ns")},
      {"core.innet.self_ns_per_event", "ns",
       Ratio(Sum("innet_self_ns"), Sum("innet_events"))},
      {"core.innet.duplicates_suppressed", "count",
       Sum("duplicates_suppressed")},
      {"core.innet.late_drops", "count", Sum("late_drops")},
      {"tinydb.self_s", "s", s("tinydb_self_ns")},
      {"reliable.sends", "count", Sum("arq_sends")},
      {"reliable.retransmits", "count", Sum("arq_retransmits")},
      {"reliable.acks", "count", Sum("arq_acks")},
      {"reliable.duplicates_dropped", "count", Sum("arq_duplicates_dropped")},
      {"reliable.give_ups", "count", Sum("arq_give_ups")},
      {"reliable.quarantines", "count", Sum("arq_quarantines")},
      {"reliable.repair_requests", "count", Sum("repair_requests")},
      {"reliable.repair_replies", "count", Sum("repair_replies")},
      {"reliable.acks_per_send", "ratio",
       Ratio(Sum("arq_acks"), Sum("arq_sends"))},
      {"workload.gen_s", "s", gen_s_},
      {"workload.summarize_s", "s", s("summarize_ns")},
  };
}

std::vector<std::string> LayerTally::Warnings() const {
  std::vector<std::string> lines;
  for (const auto& [what, e] : exceedances_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "scaled child exceeds its parent: %s in %llu of %llu "
                  "traced runs (worst %.3fx); residuals are clamped at 0",
                  what.c_str(), static_cast<unsigned long long>(e.count),
                  static_cast<unsigned long long>(traced_runs_),
                  e.worst_ratio);
    lines.emplace_back(buf);
  }
  return lines;
}

}  // namespace perfbench
