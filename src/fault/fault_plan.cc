#include "fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "net/network.h"
#include "util/rng.h"

namespace ttmqo {
namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::invalid_argument("FaultPlan: " + what);
}

void CheckProb(double p, const char* what) {
  if (!(p >= 0.0 && p < 1.0)) {
    Fail(std::string(what) + " probability must be in [0,1), got " +
         std::to_string(p));
  }
}

void EmitFault(Network& network, const char* kind,
               std::initializer_list<std::pair<const char*, std::int64_t>>
                   fields) {
  if (!network.tracing()) return;
  TraceEvent event(kind);
  for (const auto& [key, value] : fields) event.With(key, value);
  network.Emit(event);
}

}  // namespace

FaultPlan& FaultPlan::AddCrash(NodeId node, SimTime at) {
  crashes_.push_back(CrashEvent{at, node});
  return *this;
}

FaultPlan& FaultPlan::AddOutage(NodeId node, SimTime from, SimTime until) {
  outages_.push_back(OutageEvent{node, from, until});
  return *this;
}

FaultPlan& FaultPlan::AddLinkLoss(NodeId a, NodeId b, double prob,
                                  SimTime from, SimTime until) {
  link_events_.push_back(LinkLossEvent{a, b, prob, from, until});
  return *this;
}

FaultPlan& FaultPlan::AddPartition(std::vector<NodeId> nodes, SimTime from,
                                   SimTime until) {
  partitions_.push_back(PartitionEvent{std::move(nodes), from, until});
  return *this;
}

FaultPlan& FaultPlan::SetDefaultLinkLoss(double prob) {
  CheckProb(prob, "default link loss");
  default_link_loss_ = prob;
  return *this;
}

bool FaultPlan::Empty() const {
  return crashes_.empty() && outages_.empty() && link_events_.empty() &&
         partitions_.empty() && default_link_loss_ == 0.0;
}

void FaultPlan::Validate(const Topology& topology,
                         SimDuration duration_ms) const {
  const std::size_t n = topology.size();
  const auto check_node = [&](NodeId node, const char* what) {
    if (node == kBaseStationId) {
      Fail(std::string(what) + " targets the base station (node 0), which "
                               "cannot fail or go down");
    }
    if (node >= n) {
      Fail(std::string(what) + " targets node " + std::to_string(node) +
           " but the deployment has only " + std::to_string(n) + " nodes");
    }
  };

  // Crashes: in range, not the sink, at most one per node, inside the run.
  constexpr SimTime kNever = -1;
  std::vector<SimTime> crash_at(n, kNever);
  for (const CrashEvent& c : crashes_) {
    check_node(c.node, "a crash");
    if (c.time >= duration_ms) {
      Fail("crash of node " + std::to_string(c.node) + " at t=" +
           std::to_string(c.time) + " lies beyond the run duration " +
           std::to_string(duration_ms));
    }
    if (crash_at[c.node] != kNever) {
      Fail("node " + std::to_string(c.node) +
           " is crashed twice; it is already dead after the first crash");
    }
    crash_at[c.node] = c.time;
  }

  // Outages (including partition memberships): valid windows, no outage on
  // an already-crashed node, no overlapping windows per node.
  std::vector<std::vector<std::pair<SimTime, SimTime>>> windows(n);
  const auto check_window = [&](NodeId node, SimTime from, SimTime until,
                                const char* what) {
    check_node(node, what);
    if (from >= until) {
      Fail(std::string(what) + " of node " + std::to_string(node) +
           " has an empty window [" + std::to_string(from) + ", " +
           std::to_string(until) + ")");
    }
    if (until > duration_ms) {
      Fail(std::string(what) + " of node " + std::to_string(node) +
           " ends at t=" + std::to_string(until) +
           ", beyond the run duration " + std::to_string(duration_ms));
    }
    if (crash_at[node] != kNever && from >= crash_at[node]) {
      Fail(std::string(what) + " of node " + std::to_string(node) +
           " starts at t=" + std::to_string(from) +
           " but the node crashes at t=" + std::to_string(crash_at[node]));
    }
    for (const auto& [f, u] : windows[node]) {
      if (from < u && f < until) {
        Fail("node " + std::to_string(node) +
             " has overlapping down windows [" + std::to_string(f) + ", " +
             std::to_string(u) + ") and [" + std::to_string(from) + ", " +
             std::to_string(until) + ")");
      }
    }
    windows[node].emplace_back(from, until);
  };
  for (const OutageEvent& o : outages_) {
    check_window(o.node, o.from, o.until, "an outage");
  }
  for (const PartitionEvent& p : partitions_) {
    if (p.nodes.empty()) Fail("a partition lists no nodes");
    for (NodeId node : p.nodes) {
      check_window(node, p.from, p.until, "a partition");
    }
  }

  // Link events: endpoints in range and adjacent, sane windows and probs.
  CheckProb(default_link_loss_, "default link loss");
  for (const LinkLossEvent& e : link_events_) {
    CheckProb(e.prob, "link loss");
    if (e.a >= n || e.b >= n) {
      Fail("a link event references node " +
           std::to_string(std::max(e.a, e.b)) +
           " but the deployment has only " + std::to_string(n) + " nodes");
    }
    if (!topology.AreNeighbors(e.a, e.b)) {
      Fail("link event on " + std::to_string(e.a) + "-" +
           std::to_string(e.b) + ", which are not radio neighbors");
    }
    if (e.until != 0 && e.from >= e.until) {
      Fail("link event on " + std::to_string(e.a) + "-" +
           std::to_string(e.b) + " has an empty window [" +
           std::to_string(e.from) + ", " + std::to_string(e.until) + ")");
    }
    if (e.from >= duration_ms) {
      Fail("link event on " + std::to_string(e.a) + "-" +
           std::to_string(e.b) + " starts beyond the run duration");
    }
  }
}

void FaultPlan::ScheduleOn(Network& network) const {
  Simulator& sim = network.sim();
  if (default_link_loss_ > 0.0) {
    network.SetDefaultLinkLoss(default_link_loss_);
  }
  for (const CrashEvent& c : crashes_) {
    sim.ScheduleAt(c.time, [&network, c]() {
      network.FailNode(c.node);
      EmitFault(network, "fault.crash",
                {{"node", static_cast<std::int64_t>(c.node)}});
    });
  }
  for (const OutageEvent& o : outages_) {
    sim.ScheduleAt(o.from, [&network, o]() {
      network.SetDown(o.node);
      EmitFault(network, "fault.down",
                {{"node", static_cast<std::int64_t>(o.node)},
                 {"until", static_cast<std::int64_t>(o.until)}});
    });
    sim.ScheduleAt(o.until, [&network, o]() {
      network.Recover(o.node);
      EmitFault(network, "fault.recover",
                {{"node", static_cast<std::int64_t>(o.node)}});
    });
  }
  for (const LinkLossEvent& e : link_events_) {
    sim.ScheduleAt(e.from, [&network, e]() {
      network.SetLinkLoss(e.a, e.b, e.prob);
      if (network.tracing()) {
        network.Emit(TraceEvent("fault.link_degrade")
                         .With("a", static_cast<std::int64_t>(e.a))
                         .With("b", static_cast<std::int64_t>(e.b))
                         .With("prob", e.prob));
      }
    });
    if (e.until != 0) {
      sim.ScheduleAt(e.until, [&network, e]() {
        network.ClearLinkLoss(e.a, e.b);
        EmitFault(network, "fault.link_restore",
                  {{"a", static_cast<std::int64_t>(e.a)},
                   {"b", static_cast<std::int64_t>(e.b)}});
      });
    }
  }
  for (const PartitionEvent& p : partitions_) {
    sim.ScheduleAt(p.from, [&network, p]() {
      for (NodeId node : p.nodes) network.SetDown(node);
      EmitFault(network, "fault.partition",
                {{"nodes", static_cast<std::int64_t>(p.nodes.size())},
                 {"until", static_cast<std::int64_t>(p.until)}});
    });
    sim.ScheduleAt(p.until, [&network, p]() {
      for (NodeId node : p.nodes) network.Recover(node);
      EmitFault(network, "fault.heal",
                {{"nodes", static_cast<std::int64_t>(p.nodes.size())}});
    });
  }
}

bool FaultPlan::AliveAt(NodeId node, SimTime t) const {
  for (const CrashEvent& c : crashes_) {
    if (c.node == node && c.time <= t) return false;
  }
  for (const OutageEvent& o : outages_) {
    if (o.node == node && o.from <= t && t < o.until) return false;
  }
  for (const PartitionEvent& p : partitions_) {
    if (p.from <= t && t < p.until &&
        std::find(p.nodes.begin(), p.nodes.end(), node) != p.nodes.end()) {
      return false;
    }
  }
  return true;
}

void FaultPlan::WriteJson(std::ostream& out) const {
  out << "{\"default_link_loss\":" << default_link_loss_ << ",\"crashes\":[";
  for (std::size_t i = 0; i < crashes_.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"node\":" << crashes_[i].node << ",\"t\":" << crashes_[i].time
        << '}';
  }
  out << "],\"outages\":[";
  for (std::size_t i = 0; i < outages_.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"node\":" << outages_[i].node << ",\"from\":"
        << outages_[i].from << ",\"until\":" << outages_[i].until << '}';
  }
  out << "],\"links\":[";
  for (std::size_t i = 0; i < link_events_.size(); ++i) {
    const LinkLossEvent& e = link_events_[i];
    if (i > 0) out << ',';
    out << "{\"a\":" << e.a << ",\"b\":" << e.b << ",\"prob\":" << e.prob
        << ",\"from\":" << e.from << ",\"until\":" << e.until << '}';
  }
  out << "],\"partitions\":[";
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const PartitionEvent& p = partitions_[i];
    if (i > 0) out << ',';
    out << "{\"nodes\":[";
    for (std::size_t j = 0; j < p.nodes.size(); ++j) {
      if (j > 0) out << ',';
      out << p.nodes[j];
    }
    out << "],\"from\":" << p.from << ",\"until\":" << p.until << '}';
  }
  out << "]}";
}

FaultPlan FaultPlan::RandomTransient(const RandomFaultParams& params,
                                     std::size_t num_nodes,
                                     SimDuration duration_ms,
                                     std::uint64_t seed) {
  FaultPlan plan;
  if (params.link_loss > 0.0) plan.SetDefaultLinkLoss(params.link_loss);
  if (num_nodes < 2) return plan;
  const auto cap = static_cast<std::size_t>(std::floor(
      params.max_down_fraction * static_cast<double>(num_nodes - 1)));
  const std::size_t victims = std::min(params.max_outages, cap);
  if (victims == 0) return plan;

  Rng rng(seed ^ 0x6661756c74ULL);
  // Distinct non-base-station victims via a partial Fisher-Yates shuffle.
  std::vector<NodeId> pool;
  pool.reserve(num_nodes - 1);
  for (NodeId node = 1; node < num_nodes; ++node) pool.push_back(node);
  for (std::size_t i = 0; i < victims; ++i) {
    const std::size_t j = i + rng.Index(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }

  const SimTime last_start =
      params.window_until > 0
          ? params.window_until
          : (duration_ms > params.max_outage_ms
                 ? duration_ms - params.max_outage_ms
                 : 1);
  for (std::size_t i = 0; i < victims; ++i) {
    const auto from = static_cast<SimTime>(rng.UniformInt(
        static_cast<std::int64_t>(params.window_from),
        static_cast<std::int64_t>(last_start > 0 ? last_start - 1 : 0)));
    const auto length = static_cast<SimDuration>(
        rng.UniformInt(static_cast<std::int64_t>(params.min_outage_ms),
                       static_cast<std::int64_t>(params.max_outage_ms)));
    const SimTime until = std::min<SimTime>(from + length, duration_ms);
    if (from >= until) continue;
    plan.AddOutage(pool[i], from, until);
  }
  return plan;
}

}  // namespace ttmqo
