#include "query/result.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace ttmqo {
namespace {

std::string Describe(QueryId query, SimTime t) {
  std::ostringstream out;
  out << "query " << query << " at epoch " << t << "ms";
  return out.str();
}

bool NearlyEqual(double a, double b, double tolerance) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tolerance * scale;
}

// Compares one query's answers in `expected` and `actual` epoch by epoch.
std::optional<std::string> CompareQueryStreams(
    const Query& query, const std::vector<const EpochResult*>& expected,
    const std::vector<const EpochResult*>& actual, double tolerance) {
  if (expected.size() != actual.size()) {
    std::ostringstream out;
    out << "query " << query.id() << ": " << expected.size()
        << " epochs expected, " << actual.size() << " observed";
    return out.str();
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const EpochResult& e = *expected[i];
    const EpochResult& a = *actual[i];
    if (e.epoch_time != a.epoch_time) {
      return Describe(query.id(), e.epoch_time) + ": epoch times diverge (" +
             std::to_string(e.epoch_time) + " vs " +
             std::to_string(a.epoch_time) + ")";
    }
    if (query.kind() == QueryKind::kAcquisition) {
      if (e.rows.size() != a.rows.size()) {
        return Describe(query.id(), e.epoch_time) + ": row counts differ (" +
               std::to_string(e.rows.size()) + " vs " +
               std::to_string(a.rows.size()) + ")";
      }
      for (std::size_t r = 0; r < e.rows.size(); ++r) {
        if (e.rows[r].node() != a.rows[r].node()) {
          return Describe(query.id(), e.epoch_time) + ": row " +
                 std::to_string(r) + " node differs";
        }
        for (Attribute attr : query.attributes()) {
          const auto ev = e.rows[r].Get(attr);
          const auto av = a.rows[r].Get(attr);
          if (ev.has_value() != av.has_value() ||
              (ev.has_value() && !NearlyEqual(*ev, *av, tolerance))) {
            return Describe(query.id(), e.epoch_time) + ": row " +
                   std::to_string(r) + " attribute " +
                   std::string(AttributeName(attr)) + " differs";
          }
        }
      }
    } else {
      if (e.aggregates.size() != a.aggregates.size()) {
        return Describe(query.id(), e.epoch_time) +
               ": aggregate counts differ";
      }
      for (std::size_t g = 0; g < e.aggregates.size(); ++g) {
        const auto& [espec, evalue] = e.aggregates[g];
        const auto& [aspec, avalue] = a.aggregates[g];
        if (!(espec == aspec)) {
          return Describe(query.id(), e.epoch_time) +
                 ": aggregate specs differ";
        }
        if (evalue.has_value() != avalue.has_value() ||
            (evalue.has_value() &&
             !NearlyEqual(*evalue, *avalue, tolerance))) {
          return Describe(query.id(), e.epoch_time) + ": " +
                 espec.ToString() + " differs";
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::string EpochResult::ToString() const {
  std::ostringstream out;
  out << Describe(query, epoch_time) << ": ";
  if (kind == QueryKind::kAcquisition) {
    out << rows.size() << " rows";
  } else {
    for (std::size_t i = 0; i < aggregates.size(); ++i) {
      if (i > 0) out << ", ";
      out << aggregates[i].first.ToString() << "=";
      if (aggregates[i].second.has_value()) {
        out << *aggregates[i].second;
      } else {
        out << "null";
      }
    }
  }
  return out.str();
}

void ResultLog::OnResult(EpochResult result) {
  const std::pair key(result.query, result.epoch_time);
  results_.insert_or_assign(key, std::move(result));
}

std::vector<const EpochResult*> ResultLog::ResultsFor(QueryId query) const {
  const auto first = results_.lower_bound(
      {query, std::numeric_limits<SimTime>::min()});
  const auto last = results_.upper_bound(
      {query, std::numeric_limits<SimTime>::max()});
  std::vector<const EpochResult*> out;
  for (auto it = first; it != last; ++it) out.push_back(&it->second);
  return out;
}

std::vector<const EpochResult*> ResultLog::All() const {
  std::vector<const EpochResult*> out;
  out.reserve(results_.size());
  for (const auto& [key, value] : results_) out.push_back(&value);
  return out;
}

const EpochResult* ResultLog::Find(QueryId query, SimTime epoch_time) const {
  const auto it = results_.find({query, epoch_time});
  return it == results_.end() ? nullptr : &it->second;
}

std::optional<std::string> CompareResultLogs(const ResultLog& expected,
                                             const ResultLog& actual,
                                             const std::vector<Query>& queries,
                                             double tolerance) {
  for (const Query& query : queries) {
    auto diff = CompareQueryStreams(query, expected.ResultsFor(query.id()),
                                    actual.ResultsFor(query.id()), tolerance);
    if (diff.has_value()) return diff;
  }
  return std::nullopt;
}

}  // namespace ttmqo
