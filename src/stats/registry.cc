#include "stats/registry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "exec/exec_options.h"

namespace wimpi::stats {
namespace {

// Process-global origin id allocator (0 is reserved for "unknown").
uint32_t NextOrigin() {
  static std::atomic<uint32_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Selectivity of one predicate given its column's statistics.
double PredicateSelectivity(const ColumnStats& cs, const exec::Predicate& p) {
  using Kind = exec::Predicate::Kind;
  using StrHint = exec::Predicate::StrHint;
  switch (p.kind()) {
    case Kind::kCmpI32:
    case Kind::kCmpI64:
      return cs.CmpSelectivity(p.op(), static_cast<double>(p.i64_lo()));
    case Kind::kCmpF64:
      return cs.CmpSelectivity(p.op(), p.f64_lo());
    case Kind::kBetweenI32:
      return cs.RangeSelectivity(static_cast<double>(p.i64_lo()),
                                 static_cast<double>(p.i64_hi()));
    case Kind::kBetweenF64:
      return cs.RangeSelectivity(p.f64_lo(), p.f64_hi());
    case Kind::kInI32: {
      double sel = 0;
      for (const int32_t v : p.in_values()) {
        sel += cs.EqSelectivityAt(static_cast<double>(v));
      }
      return std::min(sel, 1.0);
    }
    case Kind::kStrPred:
      // The dictionary test is opaque; the factory's shape hint picks the
      // formula (NDV is over dictionary codes = distinct values).
      switch (p.str_hint()) {
        case StrHint::kEq:
          return cs.EqSelectivity();
        case StrHint::kNe:
          return std::clamp(1.0 - cs.EqSelectivity(), 0.0, 1.0);
        case StrHint::kIn:
          return std::min(
              static_cast<double>(p.str_hint_count()) * cs.EqSelectivity(),
              1.0);
        case StrHint::kLike:
          return 0.1;  // classic System R magic constant
        case StrHint::kNotLike:
          return 0.9;
        case StrHint::kGeneric:
        case StrHint::kNone:
          return 0.25;
      }
      return 0.25;
  }
  return 1.0;
}

// Join-output estimate from per-key NDVs. Keys without statistics on
// either side contribute nothing (factor 1); one-sided-unknown keys use
// the containment assumption (the unknown side's key domain is contained
// in the known side's).
double JoinEstimate(const std::vector<const ColumnStats*>& build_stats,
                    int64_t build_rows,
                    const std::vector<const ColumnStats*>& probe_stats,
                    int64_t probe_rows, exec::JoinKind kind) {
  const double b = static_cast<double>(build_rows);
  const double p = static_cast<double>(probe_rows);
  if (build_rows == 0 || probe_rows == 0) {
    switch (kind) {
      case exec::JoinKind::kInner:
      case exec::JoinKind::kSemi:
        return 0;
      case exec::JoinKind::kAnti:
      case exec::JoinKind::kLeftOuter:
        return p;
    }
  }
  bool any_known = false;
  double inner_div = 1;   // ∏ max(db, dp)
  double semi_frac = 1;   // ∏ min(1, db/dp)
  const size_t nkeys = build_stats.size();
  for (size_t k = 0; k < nkeys; ++k) {
    const ColumnStats* bs = build_stats[k];
    const ColumnStats* ps = probe_stats[k];
    double db = bs != nullptr ? std::min(bs->ndv, b) : -1;
    double dp = ps != nullptr ? std::min(ps->ndv, p) : -1;
    if (db < 0 && dp < 0) continue;  // no information for this key
    any_known = true;
    if (db < 0) db = dp;  // containment
    if (dp < 0) dp = db;
    db = std::max(db, 1.0);
    dp = std::max(dp, 1.0);
    inner_div *= std::max(db, dp);
    semi_frac *= std::min(1.0, db / dp);
  }
  if (!any_known) return -1;
  double est = 0;
  switch (kind) {
    case exec::JoinKind::kInner:
      est = b * p / inner_div;
      break;
    case exec::JoinKind::kSemi:
      est = p * semi_frac;
      break;
    case exec::JoinKind::kAnti:
      est = p * (1.0 - semi_frac);
      break;
    case exec::JoinKind::kLeftOuter:
      est = std::max(b * p / inner_div, p);
      break;
  }
  return std::clamp(est, 0.0, b * p);
}

}  // namespace

const TableStats& StatsRegistry::Store(storage::Table& table, TableStats ts) {
  std::unique_lock lock(mu_);
  // Re-collecting: drop the old stats' origin entries first — they point
  // into the TableStats we are about to replace.
  const auto old = tables_.find(ts.table);
  if (old != tables_.end()) {
    for (const auto& [_, cs] : old->second.columns) {
      by_origin_.erase(cs.origin);
    }
  }
  TableStats& stored = tables_[ts.table] = std::move(ts);
  for (auto& [name, cs] : stored.columns) {
    cs.origin = NextOrigin();
    table.column(name).set_origin(cs.origin);
    by_origin_[cs.origin] = &cs;
  }
  return stored;
}

const TableStats& StatsRegistry::Collect(storage::Table& table,
                                         const StatsBuildOptions& opts) {
  // The heavy streaming pass runs outside the lock; only the map splice
  // and origin stamping are serialized.
  return Store(table, BuildTableStats(table, opts));
}

void StatsRegistry::CollectDatabase(const engine::Database& db,
                                    const StatsBuildOptions& opts) {
  for (const auto& [name, table] : db.tables()) {
    Collect(*table, opts);
  }
}

const TableStats* StatsRegistry::Find(const std::string& table) const {
  std::shared_lock lock(mu_);
  const auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second;
}

const ColumnStats* StatsRegistry::FindColumn(const std::string& table,
                                             const std::string& column) const {
  std::shared_lock lock(mu_);
  const auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.Find(column);
}

const ColumnStats* StatsRegistry::FindByOriginLocked(uint32_t origin) const {
  if (origin == 0) return nullptr;
  const auto it = by_origin_.find(origin);
  return it == by_origin_.end() ? nullptr : it->second;
}

const ColumnStats* StatsRegistry::ResolveByOrigin(uint32_t origin) const {
  std::shared_lock lock(mu_);
  return FindByOriginLocked(origin);
}

const ColumnStats* StatsRegistry::ResolveColumn(
    const exec::ColumnSource& src, const std::string& column) const {
  const storage::Column& col = src.column(column);
  std::shared_lock lock(mu_);
  const ColumnStats* cs = FindByOriginLocked(col.origin());
  if (cs != nullptr) return cs;
  if (src.table() != nullptr) {
    const auto it = tables_.find(src.table()->name());
    if (it != tables_.end()) return it->second.Find(column);
  }
  return nullptr;
}

double StatsRegistry::EstimateSelectivity(
    const std::string& table,
    const std::vector<exec::Predicate>& preds) const {
  std::shared_lock lock(mu_);
  const auto it = tables_.find(table);
  if (it == tables_.end()) return 1.0;
  double sel = 1.0;
  for (const exec::Predicate& p : preds) {
    const ColumnStats* cs = it->second.Find(p.column_name());
    if (cs == nullptr) continue;  // unknown column: no reduction assumed
    sel *= PredicateSelectivity(*cs, p);
  }
  return std::clamp(sel, 0.0, 1.0);
}

double StatsRegistry::EstimateJoinCardinality(
    const std::string& left, const std::string& right,
    const std::vector<std::pair<std::string, std::string>>& keys,
    exec::JoinKind kind) const {
  std::shared_lock lock(mu_);
  const auto lit = tables_.find(left);
  const auto rit = tables_.find(right);
  if (lit == tables_.end() || rit == tables_.end()) return -1;
  const int64_t lrows = lit->second.row_count;
  const int64_t rrows = rit->second.row_count;
  std::vector<const ColumnStats*> ls, rs;
  ls.reserve(keys.size());
  rs.reserve(keys.size());
  for (const auto& [lcol, rcol] : keys) {
    ls.push_back(lit->second.Find(lcol));
    rs.push_back(rit->second.Find(rcol));
  }
  return JoinEstimate(ls, lrows, rs, rrows, kind);
}

double StatsRegistry::EstimateFilterRows(const exec::ColumnSource& src,
                                         const exec::Predicate& pred,
                                         int64_t rows_in) const {
  const ColumnStats* cs = ResolveColumn(src, pred.column_name());
  if (cs == nullptr) return -1;
  return PredicateSelectivity(*cs, pred) * static_cast<double>(rows_in);
}

double StatsRegistry::EstimateColCmpRows(const exec::ColumnSource& src,
                                         const std::string& a,
                                         exec::CmpOp op, const std::string& b,
                                         int64_t rows_in) const {
  const double n = static_cast<double>(rows_in);
  if (op != exec::CmpOp::kEq && op != exec::CmpOp::kNe) {
    // Order comparison between two columns: the classic 1/3 heuristic
    // (no statistic captures their correlation).
    return n / 3.0;
  }
  const ColumnStats* as = ResolveColumn(src, a);
  const ColumnStats* bs = ResolveColumn(src, b);
  const double nda = as != nullptr ? as->ndv : -1;
  const double ndb = bs != nullptr ? bs->ndv : -1;
  const double d = std::max(nda, ndb);
  if (d < 1) return -1;
  const double eq = n / d;
  return op == exec::CmpOp::kEq ? eq : std::max(n - eq, 0.0);
}

double StatsRegistry::EstimateJoinRows(
    const std::vector<const storage::Column*>& build_keys, int64_t build_rows,
    const std::vector<const storage::Column*>& probe_keys, int64_t probe_rows,
    exec::JoinKind kind) const {
  std::vector<const ColumnStats*> bs, ps;
  bs.reserve(build_keys.size());
  ps.reserve(probe_keys.size());
  {
    std::shared_lock lock(mu_);
    for (const storage::Column* c : build_keys) {
      bs.push_back(FindByOriginLocked(c->origin()));
    }
    for (const storage::Column* c : probe_keys) {
      ps.push_back(FindByOriginLocked(c->origin()));
    }
  }
  return JoinEstimate(bs, build_rows, ps, probe_rows, kind);
}

double StatsRegistry::EstimateGroupRows(
    const exec::ColumnSource& src, const std::vector<std::string>& group_by,
    int64_t rows_in) const {
  if (rows_in <= 0) return 0;
  const double n = static_cast<double>(rows_in);
  if (group_by.empty()) return 1;
  double groups = 1;
  for (const std::string& col : group_by) {
    const ColumnStats* cs = ResolveColumn(src, col);
    // Unknown key column: sqrt(n) is the usual agnostic guess.
    groups *= cs != nullptr ? std::min(cs->ndv, n) : std::sqrt(n);
  }
  return std::clamp(groups, 1.0, n);
}

}  // namespace wimpi::stats
