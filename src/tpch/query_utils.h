#ifndef WIMPI_TPCH_QUERY_UTILS_H_
#define WIMPI_TPCH_QUERY_UTILS_H_

#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/aggregate.h"
#include "exec/expr.h"
#include "exec/filter.h"
#include "exec/join.h"
#include "exec/sort.h"

namespace wimpi::tpch {

// Shorthand used throughout the hand-written TPC-H physical plans.
using exec::AggFn;
using exec::AggSpec;
using exec::CmpOp;
using exec::ColumnSource;
using exec::JoinKind;
using exec::Predicate;
using exec::QueryStats;
using exec::Relation;
using exec::ScanAll;
using exec::SelVec;
using exec::SortKey;

// {"a", "b"} -> {{"a","a"}, {"b","b"}} for GatherColumns.
std::vector<std::pair<std::string, std::string>> Cols(
    const std::vector<std::string>& names);

// Filters a base table and materializes `cols` of the qualifying rows.
Relation ScanGather(const storage::Table& t,
                    const std::vector<Predicate>& preds,
                    const std::vector<std::string>& cols, QueryStats* stats);

// Whole columns of a table (no filter) are read with exec::ScanAll, which
// borrows them. A query's result must not borrow: every plan ends in an
// operator that writes its own columns.

// Hash-joins two relations on named key columns and gathers the requested
// output columns from each side. For kSemi/kAnti, `build_cols` must be
// empty (only probe rows survive). Key columns themselves can be re-gathered
// by listing them in the output sets.
Relation JoinGather(const Relation& build,
                    const std::vector<std::string>& build_keys,
                    const std::vector<std::string>& build_cols,
                    const Relation& probe,
                    const std::vector<std::string>& probe_keys,
                    const std::vector<std::string>& probe_cols,
                    JoinKind kind, QueryStats* stats);

// revenue = l_extendedprice * (1 - l_discount), appended as `name`.
void AddRevenue(Relation* r, const std::string& name, QueryStats* stats);

// A one-row float64 relation: column names[i] holds values[i].
Relation ScalarRelation(const std::vector<std::string>& names,
                        const std::vector<double>& values);

// One exec::SumF64 per spec (each must be a kSum) over `in`, as a one-row
// relation named by the specs' outputs.
Relation ScalarSums(const Relation& in, const std::vector<AggSpec>& aggs,
                    QueryStats* stats);

// n_nationkey for a nation name; CHECK-fails if unknown.
int32_t NationKey(const engine::Database& db, const std::string& name);

// Nation keys of every nation in `region_name`.
std::vector<int32_t> NationKeysInRegion(const engine::Database& db,
                                        const std::string& region_name);

}  // namespace wimpi::tpch

#endif  // WIMPI_TPCH_QUERY_UTILS_H_
