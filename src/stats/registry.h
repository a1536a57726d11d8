#ifndef WIMPI_STATS_REGISTRY_H_
#define WIMPI_STATS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "exec/estimator.h"
#include "stats/table_stats.h"

namespace wimpi::stats {

// Catalog of table/column statistics plus the cardinality estimator built
// on them (DESIGN.md §13). Collect() runs one streaming pass over a table
// (parallel under the ambient exec options, bit-identical at any thread
// count) and stamps a process-unique origin id on every base column, so
// intermediates that gathered from that column still resolve to its
// statistics during estimation.
//
// The estimator side implements exec::CardinalityEstimator: install a
// registry via Executor::set_cardinality_estimator (or ExecOptions) and
// every operator records its prediction in OpStats.est_rows next to the
// measured actuals. Estimates are observational only — answers are
// bit-identical with or without them.
//
// Concurrency: Find/Estimate* take a shared lock, Collect an exclusive
// one, so concurrent estimation against a stable registry is safe, as is
// eager collection of different tables from several threads. Estimation
// never collects: a table without statistics yields no estimate, so
// services running concurrent queries CollectDatabase eagerly before
// arming the estimator.
class StatsRegistry : public exec::CardinalityEstimator {
 public:
  StatsRegistry() = default;

  // Collects (or re-collects) statistics for `table` with one streaming
  // pass and stamps origin ids on its columns. Returns the stored stats.
  const TableStats& Collect(storage::Table& table,
                            const StatsBuildOptions& opts = {});

  // Eagerly collects every table in `db` (deterministic name order).
  void CollectDatabase(const engine::Database& db,
                       const StatsBuildOptions& opts = {});

  // -- Lookup --
  const TableStats* Find(const std::string& table) const;
  const ColumnStats* FindColumn(const std::string& table,
                                const std::string& column) const;

  // -- Optimizer entry points --

  // Fraction of `table`'s rows surviving the conjunction `preds`
  // (independence assumption; conjuncts on unknown columns contribute 1).
  double EstimateSelectivity(const std::string& table,
                             const std::vector<exec::Predicate>& preds) const;

  // Output rows of left JOIN right on the given (left column, right
  // column) key pairs; left is the build side. Negative when neither
  // side has statistics for any key.
  double EstimateJoinCardinality(
      const std::string& left, const std::string& right,
      const std::vector<std::pair<std::string, std::string>>& keys,
      exec::JoinKind kind = exec::JoinKind::kInner) const;

  // -- exec::CardinalityEstimator --
  double EstimateFilterRows(const exec::ColumnSource& src,
                            const exec::Predicate& pred,
                            int64_t rows_in) const override;
  double EstimateColCmpRows(const exec::ColumnSource& src,
                            const std::string& a, exec::CmpOp op,
                            const std::string& b,
                            int64_t rows_in) const override;
  double EstimateJoinRows(const std::vector<const storage::Column*>& build_keys,
                          int64_t build_rows,
                          const std::vector<const storage::Column*>& probe_keys,
                          int64_t probe_rows,
                          exec::JoinKind kind) const override;
  double EstimateGroupRows(const exec::ColumnSource& src,
                           const std::vector<std::string>& group_by,
                           int64_t rows_in) const override;

 private:
  // Stores freshly built stats and stamps origins; caller holds no lock.
  const TableStats& Store(storage::Table& table, TableStats ts);

  // Column stats by origin tag (locked).
  const ColumnStats* FindByOriginLocked(uint32_t origin) const;

  // Resolves a named column of `src` to its statistics: by the column's
  // origin tag first, then (base tables) by table name. Takes/releases
  // the lock internally.
  const ColumnStats* ResolveColumn(const exec::ColumnSource& src,
                                   const std::string& column) const;
  const ColumnStats* ResolveByOrigin(uint32_t origin) const;

  mutable std::shared_mutex mu_;
  // node-stable: ColumnStats pointers in by_origin_ point into this map.
  mutable std::map<std::string, TableStats> tables_;
  mutable std::map<uint32_t, const ColumnStats*> by_origin_;
};

}  // namespace wimpi::stats

#endif  // WIMPI_STATS_REGISTRY_H_
