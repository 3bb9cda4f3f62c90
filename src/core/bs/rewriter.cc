#include "core/bs/rewriter.h"

#include <algorithm>
#include <bit>

#include "obs/span.h"
#include "util/check.h"
#include "util/mathx.h"

namespace ttmqo {
namespace {

// Memo caches are cleared wholesale at this size; the cap only matters for
// adversarial workloads (normal runs dedupe to a few thousand structures).
constexpr std::size_t kMemoCapacity = std::size_t{1} << 20;

// Relative slack applied before pruning on the benefit-rate upper bound.
// The bound is admissible in real arithmetic; the slack absorbs the few ULPs
// by which floating-point evaluation of the bound and the exact rate can
// disagree, so a candidate tied with the current best is never pruned.
constexpr double kPruneSlack = 1e-12;

// Structural equality of two network queries, ignoring the id.
bool SameRequest(const Query& a, const Query& b) {
  return a.kind() == b.kind() && a.epoch() == b.epoch() &&
         a.attributes() == b.attributes() && a.aggregates() == b.aggregates() &&
         a.predicates() == b.predicates();
}

void AppendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendDouble(std::string& out, double v) {
  if (v == 0.0) v = 0.0;  // fold -0.0 onto +0.0: they compare equal
  AppendU64(out, std::bit_cast<std::uint64_t>(v));
}

// Signature of a predicate conjunction.  PredicateSet normalizes to at most
// one non-vacuous interval per attribute, so two sets compare equal iff
// their signatures match byte-for-byte (empty intervals all encode as 'E',
// signed zeros are folded above).
std::string PredicateKey(const PredicateSet& predicates) {
  std::string key;
  const auto list = predicates.AsList();
  key.push_back(static_cast<char>(list.size()));
  for (const Predicate& p : list) {
    key.push_back(static_cast<char>(AttributeIndex(p.attribute)));
    if (p.range.empty()) {
      key.push_back('E');
      continue;
    }
    key.push_back('I');
    AppendDouble(key, p.range.lo());
    AppendDouble(key, p.range.hi());
  }
  return key;
}

// Structural identity of a query as the cost model sees it: kind, epoch,
// attribute/aggregate lists, predicates.  Ids and lifetimes do not enter
// Eq. 1-3, so structurally equal queries share memo entries.
std::string StructuralKey(const Query& q) {
  std::string key;
  key.push_back(q.kind() == QueryKind::kAggregation ? 'G' : 'A');
  AppendU64(key, static_cast<std::uint64_t>(q.epoch()));
  key.push_back(static_cast<char>(q.attributes().size()));
  for (Attribute attr : q.attributes()) {
    key.push_back(static_cast<char>(AttributeIndex(attr)));
  }
  key.push_back(static_cast<char>(q.aggregates().size()));
  for (const AggregateSpec& spec : q.aggregates()) {
    key.push_back(static_cast<char>(spec.op));
    key.push_back(static_cast<char>(AttributeIndex(spec.attribute)));
  }
  key += PredicateKey(q.predicates());
  return key;
}

std::uint32_t AttributeMask(const std::vector<Attribute>& attrs) {
  std::uint32_t mask = 0;
  for (Attribute attr : attrs) {
    mask |= std::uint32_t{1} << AttributeIndex(attr);
  }
  return mask;
}

}  // namespace

BaseStationOptimizer::BaseStationOptimizer(const CostModel& cost,
                                           Options options)
    : cost_(&cost),
      options_(options),
      next_synthetic_id_(kFirstSyntheticId),
      stats_version_(cost.StatsVersion()) {
  CheckArg(options.alpha >= 0.0, "BaseStationOptimizer: alpha must be >= 0");
}

double BaseStationOptimizer::BenefitRate(const Query& qi,
                                         const SyntheticQuery& qj) const {
  if (Covers(qj.query, qi)) return 1.0;
  if (!IsRewritable(qj.query, qi)) return 0.0;
  const Query members[] = {qj.query, qi};
  const Query integrated = BuildNetworkQuery(qj.query.id(), members);
  const double cost_qi = cost_->Cost(qi);
  if (cost_qi <= 0.0) return 0.0;
  const double rate =
      cost_->Benefit(qi, qj.query, integrated) / cost_qi;
  // Exactly 1.0 is reserved for structural coverage; a non-covering merge
  // always changes the network query, so keep it strictly below.
  return std::min(rate, 1.0 - 1e-9);
}

double BaseStationOptimizer::CostOf(const Query& query) {
  if (!options_.use_index) return cost_->Cost(query);
  std::string key = StructuralKey(query);
  const auto it = cost_memo_.find(key);
  if (it != cost_memo_.end()) {
    ++istats_.memo_hits;
    return it->second;
  }
  const double cost = cost_->Cost(query);
  if (cost_memo_.size() >= kMemoCapacity) cost_memo_.clear();
  cost_memo_.emplace(std::move(key), cost);
  return cost;
}

double BaseStationOptimizer::RateOf(const Query& qi, const std::string& qi_key,
                                    QueryId sid, const SyntheticQuery& sq) {
  const auto key_it = synthetic_key_.find(sid);
  CheckArg(key_it != synthetic_key_.end(),
           "BaseStationOptimizer: synthetic missing from the key index");
  std::pair<std::string, std::string> memo_key(qi_key, key_it->second);
  const auto it = rate_memo_.find(memo_key);
  if (it != rate_memo_.end()) {
    ++istats_.memo_hits;
    return it->second;
  }
  ++istats_.exact_evaluations;
  const double rate = BenefitRate(qi, sq);
  if (rate_memo_.size() >= kMemoCapacity) rate_memo_.clear();
  rate_memo_.emplace(std::move(memo_key), rate);
  return rate;
}

void BaseStationOptimizer::SyncStatsVersion() {
  if (!options_.use_index) return;
  const std::uint64_t version = cost_->StatsVersion();
  if (version == stats_version_) return;
  stats_version_ = version;
  cost_memo_.clear();
  rate_memo_.clear();
  RebuildCostOrder();
}

void BaseStationOptimizer::RebuildCostOrder() {
  acq_order_.clear();
  agg_order_.clear();
  indexed_cost_.clear();
  for (const auto& [sid, sq] : synthetics_) {
    const double cost = CostOf(sq.query);
    indexed_cost_.emplace(sid, cost);
    (sq.query.kind() == QueryKind::kAcquisition ? acq_order_ : agg_order_)
        .insert({cost, sid});
  }
  if (!synthetics_.empty()) ++istats_.index_rebuilds;
}

void BaseStationOptimizer::IndexAdd(QueryId sid, const SyntheticQuery& sq) {
  if (!options_.use_index) return;
  const Query& q = sq.query;
  if (q.kind() == QueryKind::kAcquisition) {
    acq_buckets_[q.epoch()][AttributeMask(q.attributes())].insert(sid);
  } else {
    agg_buckets_[{PredicateKey(q.predicates()), q.epoch()}].insert(sid);
  }
  const double cost = CostOf(q);
  indexed_cost_.emplace(sid, cost);
  (q.kind() == QueryKind::kAcquisition ? acq_order_ : agg_order_)
      .insert({cost, sid});
  synthetic_key_.emplace(sid, StructuralKey(q));
}

void BaseStationOptimizer::IndexRemove(QueryId sid, const SyntheticQuery& sq) {
  if (!options_.use_index) return;
  const Query& q = sq.query;
  if (q.kind() == QueryKind::kAcquisition) {
    const auto epoch_it = acq_buckets_.find(q.epoch());
    CheckArg(epoch_it != acq_buckets_.end(),
             "BaseStationOptimizer: synthetic missing from coverage index");
    auto& masks = epoch_it->second;
    const auto mask_it = masks.find(AttributeMask(q.attributes()));
    CheckArg(mask_it != masks.end(),
             "BaseStationOptimizer: synthetic missing from coverage index");
    mask_it->second.erase(sid);
    if (mask_it->second.empty()) masks.erase(mask_it);
    if (masks.empty()) acq_buckets_.erase(epoch_it);
  } else {
    const auto it =
        agg_buckets_.find({PredicateKey(q.predicates()), q.epoch()});
    CheckArg(it != agg_buckets_.end(),
             "BaseStationOptimizer: synthetic missing from coverage index");
    it->second.erase(sid);
    if (it->second.empty()) agg_buckets_.erase(it);
  }
  const auto cost_it = indexed_cost_.find(sid);
  CheckArg(cost_it != indexed_cost_.end(),
           "BaseStationOptimizer: synthetic missing from cost order");
  (q.kind() == QueryKind::kAcquisition ? acq_order_ : agg_order_)
      .erase({cost_it->second, sid});
  indexed_cost_.erase(cost_it);
  synthetic_key_.erase(sid);
}

std::optional<QueryId> BaseStationOptimizer::CoverageLookup(
    const Query& net_query) const {
  bool found = false;
  QueryId best = kInvalidQueryId;
  const auto consider = [&](const std::set<QueryId>& ids) {
    for (QueryId sid : ids) {  // ascending, so the first cover is the min
      if (found && sid >= best) break;
      if (Covers(synthetics_.at(sid).query, net_query)) {
        best = sid;
        found = true;
        break;
      }
    }
  };
  // Acquisition synthetics can cover either kind, provided they carry every
  // attribute the covered query acquires (integration.cc).
  const std::uint32_t need = AttributeMask(net_query.AcquiredAttributes());
  for (const auto& [epoch, masks] : acq_buckets_) {
    if (epoch > net_query.epoch()) break;  // larger epochs cannot divide
    if (!Divides(epoch, net_query.epoch())) continue;
    for (const auto& [mask, ids] : masks) {
      if ((mask & need) != need) continue;
      consider(ids);
    }
  }
  // Aggregation synthetics only cover aggregation queries with exactly
  // equal predicates, so the bucket key pins the predicate signature.
  if (net_query.kind() == QueryKind::kAggregation) {
    const std::string pred_key = PredicateKey(net_query.predicates());
    for (auto it = agg_buckets_.lower_bound({pred_key, SimDuration{0}});
         it != agg_buckets_.end() && it->first.first == pred_key; ++it) {
      const SimDuration epoch = it->first.second;
      if (epoch > net_query.epoch()) break;
      if (!Divides(epoch, net_query.epoch())) continue;
      consider(it->second);
    }
  }
  if (!found) return std::nullopt;
  return best;
}

BaseStationOptimizer::Best BaseStationOptimizer::FindBestNaive(
    const Query& net_query) {
  // Algorithm 1, lines 4-10: score every synthetic query, ascending by id;
  // the strict `>` keeps the lowest id among equal rates, and the `>= 1.0`
  // break lands on the lowest-id covering synthetic.
  Best best;
  for (const auto& [id, sq] : synthetics_) {
    const double rate = BenefitRate(net_query, sq);
    if (trace_ != nullptr) {
      trace_->Emit(TraceEvent("tier1.benefit_estimate")
                       .With("query", static_cast<std::int64_t>(net_query.id()))
                       .With("candidate", static_cast<std::int64_t>(id))
                       .With("rate", rate));
    }
    if (rate > best.rate) {
      best.rate = rate;
      best.id = id;
      if (rate >= 1.0) break;  // covered; cannot do better
    }
  }
  return best;
}

BaseStationOptimizer::Best BaseStationOptimizer::FindBestIndexed(
    const Query& net_query) {
  Best best;
  // Coverage first: the naive scan's `rate >= 1.0` break always selects the
  // lowest-id covering synthetic, which is exactly what the bucket lookup
  // returns.  Merge rates are clamped strictly below 1, so no merge can
  // outrank a cover.
  if (const auto cover = CoverageLookup(net_query)) {
    ++istats_.coverage_hits;
    best.rate = 1.0;
    best.id = *cover;
    if (trace_ != nullptr) {
      trace_->Emit(TraceEvent("tier1.benefit_estimate")
                       .With("query", static_cast<std::int64_t>(net_query.id()))
                       .With("candidate", static_cast<std::int64_t>(best.id))
                       .With("rate", 1.0));
    }
    return best;
  }

  const double cost_qi = CostOf(net_query);
  if (cost_qi <= 0.0) return best;  // BenefitRate is 0 for every merge

  // Admissible upper bounds on the merge benefit rate
  // (cost_qi + cost_sq - cost_merged) / cost_qi, from lower bounds on
  // cost_merged (DESIGN.md note 20 carries the monotonicity argument):
  //  * acquisition-form merges cost at least as much as any acquisition
  //    member and at least the acquisition-ization of any aggregation
  //    member (`qi_floor` below covers the inserted side);
  //  * aggregation-form merges (both sides aggregation, equal predicates)
  //    cost at least max of the two members.
  const bool qi_agg = net_query.kind() == QueryKind::kAggregation;
  const double qi_floor =
      qi_agg ? CostOf(Query::Acquisition(net_query.id(),
                                         net_query.AcquiredAttributes(),
                                         net_query.predicates(),
                                         net_query.epoch()))
             : cost_qi;
  const auto ub_acq = [&](double c) {  // candidate is an acquisition query
    return (cost_qi + c - std::max(c, qi_floor)) / cost_qi;
  };
  const auto ub_agg = [&](double c) {  // candidate is an aggregation query
    return qi_agg ? (cost_qi + c - std::max(c, cost_qi)) / cost_qi
                  : c / cost_qi;
  };

  const std::string qi_key = StructuralKey(net_query);
  // The naive ascending-id scan keeps the first of equal rates, i.e. the
  // lowest id; these scans run in cost/bucket order, so ties are broken
  // explicitly.  Candidate sets are disjoint and jointly exhaustive over
  // every synthetic with a nonzero rate, so the winner matches the oracle.
  const auto consider = [&](QueryId sid, const SyntheticQuery& sq) {
    const double rate = RateOf(net_query, qi_key, sid, sq);
    if (trace_ != nullptr) {
      trace_->Emit(TraceEvent("tier1.benefit_estimate")
                       .With("query", static_cast<std::int64_t>(net_query.id()))
                       .With("candidate", static_cast<std::int64_t>(sid))
                       .With("rate", rate));
    }
    if (rate > best.rate ||
        (rate == best.rate && rate > 0.0 && sid < best.id)) {
      best.rate = rate;
      best.id = sid;
    }
  };
  // The bound is nondecreasing in the candidate cost, so once it fails in a
  // cost-descending scan, every remaining (cheaper) candidate fails too.
  const auto scan = [&](const auto& order, const auto& bound) {
    std::size_t scanned = 0;
    for (const auto& [cost_sq, sid] : order) {
      ++scanned;
      if (bound(cost_sq) * (1.0 + kPruneSlack) < best.rate) {
        istats_.pruned_candidates += order.size() - scanned + 1;
        break;
      }
      const SyntheticQuery& sq = synthetics_.at(sid);
      if (!IsRewritable(sq.query, net_query)) continue;  // rate would be 0
      consider(sid, sq);
    }
  };
  // Acquisition synthetics can merge with either kind of query.
  scan(acq_order_, ub_acq);
  if (qi_agg) {
    // Aggregation synthetics only merge with aggregation queries carrying
    // exactly equal predicates (integration.cc), which is precisely the
    // agg_buckets_ signature range — no need to scan the rest.
    const std::string pred_key = PredicateKey(net_query.predicates());
    for (auto it = agg_buckets_.lower_bound({pred_key, SimDuration{0}});
         it != agg_buckets_.end() && it->first.first == pred_key; ++it) {
      for (QueryId sid : it->second) {
        consider(sid, synthetics_.at(sid));
      }
    }
  } else {
    scan(agg_order_, ub_agg);
  }
  return best;
}

void BaseStationOptimizer::InsertBundle(Query net_query,
                                        std::map<QueryId, Query> members,
                                        Actions& actions) {
  // Algorithm 1, iterated: a merge feeds the merged bundle back into the
  // candidate search instead of recursing (chained rewrites can run
  // thousands deep at scale; see the depth regression test).
  for (;;) {
    const Best best = options_.use_index ? FindBestIndexed(net_query)
                                         : FindBestNaive(net_query);

    if (best.rate >= 1.0) {
      // Lines 11-12: covered — absorb the members, network unchanged.
      ++decisions_.covered;
      if (trace_ != nullptr) {
        trace_->Emit(
            TraceEvent("tier1.insert")
                .With("query", static_cast<std::int64_t>(net_query.id()))
                .With("action", std::string("covered"))
                .With("synthetic", static_cast<std::int64_t>(best.id))
                .With("rate", best.rate));
      }
      Absorb(best.id, synthetics_.at(best.id), std::move(members));
      return;
    }

    if (best.rate > 0.0) {
      ++decisions_.merged;
      if (trace_ != nullptr) {
        trace_->Emit(
            TraceEvent("tier1.insert")
                .With("query", static_cast<std::int64_t>(net_query.id()))
                .With("action", std::string("merged"))
                .With("synthetic", static_cast<std::int64_t>(best.id))
                .With("rate", best.rate)
                .With("members", static_cast<std::int64_t>(members.size())));
      }
      // Lines 13-14: integrate with the best synthetic query, then re-run
      // the search with the merged bundle to exploit chained rewrites.
      auto node = synthetics_.extract(best.id);
      SyntheticQuery& sq = node.mapped();
      IndexRemove(best.id, sq);
      actions.abort.push_back(best.id);
      for (auto& [uid, uq] : sq.members) {
        members.emplace(uid, std::move(uq));
      }
      std::vector<Query> member_queries;
      member_queries.reserve(members.size());
      for (const auto& [uid, uq] : members) member_queries.push_back(uq);
      net_query = BuildNetworkQuery(NextSyntheticId(), member_queries);
      continue;
    }

    // Lines 15-16 (and 1-2): no beneficial rewrite — run the bundle as its
    // own synthetic query.
    const QueryId sid =
        net_query.id() >= kFirstSyntheticId
            ? net_query.id()
            : NextSyntheticId();
    ++decisions_.standalone;
    if (trace_ != nullptr) {
      trace_->Emit(TraceEvent("tier1.insert")
                       .With("query", static_cast<std::int64_t>(net_query.id()))
                       .With("action", std::string("standalone"))
                       .With("synthetic", static_cast<std::int64_t>(sid))
                       .With("members",
                             static_cast<std::int64_t>(members.size())));
    }
    SyntheticQuery sq(net_query.WithId(sid));
    sq.member_cost_version = stats_version_;  // no members yet: current
    Absorb(sid, sq, std::move(members));
    actions.inject.push_back(sq.query);
    const auto [it, inserted] = synthetics_.emplace(sid, std::move(sq));
    IndexAdd(sid, it->second);
    return;
  }
}

BaseStationOptimizer::Actions BaseStationOptimizer::InsertUserQuery(
    const Query& query) {
  TTMQO_SPAN("tier1.insert");
  CheckArg(query.id() < kFirstSyntheticId,
           "InsertUserQuery: user id collides with the synthetic id space");
  CheckArg(!user_to_synthetic_.contains(query.id()),
           "InsertUserQuery: duplicate user query id");
  SyncStatsVersion();
  Actions actions;
  std::map<QueryId, Query> members;
  members.emplace(query.id(), query);
  InsertBundle(query, std::move(members), actions);
  Deduplicate(actions);
  return actions;
}

void BaseStationOptimizer::Absorb(QueryId sid, SyntheticQuery& sq,
                                  std::map<QueryId, Query> members) {
  // The indexed path costs only the newcomers.  Ids above every current
  // member (the common case: ids arrive ascending) extend the running sum
  // with the op sequence a full recompute would execute; any other ids
  // merge into `member_costs` in order and the cached doubles are re-summed.
  // Stale costs are re-derived wholesale by RecomputeBenefit.
  const bool current =
      options_.use_index && sq.member_cost_version == stats_version_;
  const std::size_t old_size = sq.member_costs.size();
  const bool append = old_size == 0 ||
                      members.begin()->first > sq.member_costs.back().first;
  for (auto& [uid, uq] : members) {
    user_to_synthetic_[uid] = sid;
    if (current) {
      const double cost = CostOf(uq);
      sq.member_costs.emplace_back(uid, cost);
      if (append) sq.member_cost_sum += cost;
    }
    sq.members.emplace(uid, std::move(uq));
  }
  if (current && append) {
    sq.benefit = sq.member_cost_sum - CostOf(sq.query);
    return;
  }
  if (current) {
    std::inplace_merge(
        sq.member_costs.begin(),
        sq.member_costs.begin() + static_cast<std::ptrdiff_t>(old_size),
        sq.member_costs.end());
  }
  RecomputeBenefit(sq);
}

// Removes `user` from `sq` and returns its Eq. 3 cost: the indexed path
// reads it from `member_costs` (re-costed first if the statistics moved),
// the oracle evaluates it.
double BaseStationOptimizer::RemoveMember(SyntheticQuery& sq, QueryId user) {
  const auto member = sq.members.find(user);
  double cost = 0.0;
  if (options_.use_index) {
    if (sq.member_cost_version != stats_version_) CostMembers(sq);
    const auto it = std::lower_bound(
        sq.member_costs.begin(), sq.member_costs.end(), user,
        [](const std::pair<QueryId, double>& entry, QueryId id) {
          return entry.first < id;
        });
    CheckArg(it != sq.member_costs.end() && it->first == user,
             "BaseStationOptimizer: member missing from the cost array");
    cost = it->second;
    sq.member_costs.erase(it);
  } else {
    cost = CostOf(member->second);
  }
  sq.members.erase(member);
  return cost;
}

BaseStationOptimizer::Actions BaseStationOptimizer::TerminateUserQuery(
    QueryId user) {
  TTMQO_SPAN("tier1.terminate");
  const auto user_it = user_to_synthetic_.find(user);
  CheckArg(user_it != user_to_synthetic_.end(),
           "TerminateUserQuery: unknown user query");
  SyncStatsVersion();
  const QueryId sid = user_it->second;
  SyntheticQuery& sq = synthetics_.at(sid);
  CheckArg(sq.members.contains(user),
           "TerminateUserQuery: user query missing from its synthetic's "
           "members");
  user_to_synthetic_.erase(user_it);

  Actions actions;
  if (sq.members.size() == 1) {
    // Last member gone: retire the synthetic query.
    ++decisions_.retired;
    if (trace_ != nullptr) {
      trace_->Emit(TraceEvent("tier1.terminate")
                       .With("query", static_cast<std::int64_t>(user))
                       .With("action", std::string("retire"))
                       .With("synthetic", static_cast<std::int64_t>(sid)));
    }
    actions.abort.push_back(sid);
    IndexRemove(sid, sq);
    synthetics_.erase(sid);
    return actions;
  }

  // Algorithm 2, line 5: rebuild only when the leaving query's cost
  // outweighs the synthetic query's benefit (still its pre-termination
  // value), scaled by alpha.
  const double leaving_cost = RemoveMember(sq, user);
  const bool costly = leaving_cost > sq.benefit * options_.alpha;

  // "Some count decreased to 0" <=> the canonical query of the remaining
  // members no longer requests everything the running one does.  It only
  // matters to a costly leaver, so it is derived then — or when the trace
  // reports it.
  bool requirements_shrank = false;
  if (costly || trace_ != nullptr) {
    std::vector<Query> remaining;
    remaining.reserve(sq.members.size());
    for (const auto& [uid, uq] : sq.members) remaining.push_back(uq);
    requirements_shrank = !SameRequest(
        BuildNetworkQuery(sq.query.id(), remaining), sq.query);
  }
  const bool rebuild = costly && requirements_shrank;
  if (rebuild) {
    ++decisions_.rebuilt;
  } else {
    ++decisions_.kept;
  }
  if (trace_ != nullptr) {
    trace_->Emit(TraceEvent("tier1.terminate")
                     .With("query", static_cast<std::int64_t>(user))
                     .With("action",
                           std::string(rebuild ? "rebuild" : "keep"))
                     .With("synthetic", static_cast<std::int64_t>(sid))
                     .With("leaving_cost", leaving_cost)
                     .With("benefit", sq.benefit)
                     .With("alpha", options_.alpha)
                     .With("shrank", requirements_shrank));
  }
  if (rebuild) {
    actions.abort.push_back(sid);
    IndexRemove(sid, sq);
    auto node = synthetics_.extract(sid);
    for (auto& [uid, uq] : node.mapped().members) {
      user_to_synthetic_.erase(uid);
      std::map<QueryId, Query> members;
      members.emplace(uid, uq);
      InsertBundle(uq, std::move(members), actions);
    }
    Deduplicate(actions);
    return actions;
  }

  // Keep the (possibly over-wide) synthetic query; just update its benefit.
  RecomputeBenefit(sq);
  return actions;
}

// Re-derives `member_costs` from `members` under the current statistics.
void BaseStationOptimizer::CostMembers(SyntheticQuery& sq) {
  sq.member_costs.clear();
  sq.member_costs.reserve(sq.members.size());
  for (const auto& [uid, uq] : sq.members) {
    sq.member_costs.emplace_back(uid, CostOf(uq));
  }
  sq.member_cost_version = stats_version_;
}

void BaseStationOptimizer::RecomputeBenefit(SyntheticQuery& sq) {
  // Both paths sum in ascending uid order, so `benefit` is bit-equal; the
  // indexed one re-costs its members only when the statistics moved.
  double member_cost = 0.0;
  if (options_.use_index) {
    if (sq.member_cost_version != stats_version_) CostMembers(sq);
    for (const auto& [uid, cost] : sq.member_costs) member_cost += cost;
  } else {
    for (const auto& [uid, uq] : sq.members) member_cost += CostOf(uq);
  }
  sq.member_cost_sum = member_cost;
  sq.benefit = member_cost - CostOf(sq.query);
}

bool BaseStationOptimizer::CostsCurrent(const SyntheticQuery& sq) const {
  return options_.use_index &&
         sq.member_cost_version == cost_->StatsVersion();
}

const SyntheticQuery* BaseStationOptimizer::SyntheticOf(QueryId user) const {
  const auto it = user_to_synthetic_.find(user);
  if (it == user_to_synthetic_.end()) return nullptr;
  return &synthetics_.at(it->second);
}

const SyntheticQuery* BaseStationOptimizer::FindSynthetic(QueryId id) const {
  const auto it = synthetics_.find(id);
  return it == synthetics_.end() ? nullptr : &it->second;
}

std::vector<const SyntheticQuery*> BaseStationOptimizer::Synthetics() const {
  std::vector<const SyntheticQuery*> out;
  out.reserve(synthetics_.size());
  for (const auto& [id, sq] : synthetics_) out.push_back(&sq);
  return out;
}

double BaseStationOptimizer::TotalUserCost() const {
  double total = 0.0;
  for (const auto& [id, sq] : synthetics_) {
    if (CostsCurrent(sq)) {
      for (const auto& [uid, cost] : sq.member_costs) total += cost;
    } else {
      for (const auto& [uid, uq] : sq.members) total += cost_->Cost(uq);
    }
  }
  return total;
}

double BaseStationOptimizer::TotalBenefit() const {
  double total = 0.0;
  for (const auto& [id, sq] : synthetics_) {
    if (CostsCurrent(sq)) {
      total += sq.benefit;
      continue;
    }
    double member_cost = 0.0;
    for (const auto& [uid, uq] : sq.members) member_cost += cost_->Cost(uq);
    total += member_cost - cost_->Cost(sq.query);
  }
  return total;
}

void BaseStationOptimizer::Deduplicate(Actions& actions) {
  // A synthetic query injected and aborted within the same call never
  // reaches the network; cancel the pair.
  for (auto it = actions.inject.begin(); it != actions.inject.end();) {
    const auto abort_it = std::find(actions.abort.begin(),
                                    actions.abort.end(), it->id());
    if (abort_it != actions.abort.end()) {
      actions.abort.erase(abort_it);
      it = actions.inject.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ttmqo
