#ifndef WIMPI_TESTS_REFERENCE_H_
#define WIMPI_TESTS_REFERENCE_H_

// Independent row-at-a-time reference implementations of all 22 TPC-H
// queries, used to validate the vectorized engine. They share nothing with
// the engine except the loaded tables: plain loops, std::map groupings and
// std::sort, following the SQL text directly (including the correlated
// subqueries, evaluated naively).

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "engine/database.h"
#include "exec/aggregate.h"

namespace wimpi::tpch_ref {

using RefValue = std::variant<int64_t, double, std::string>;
using RefRow = std::vector<RefValue>;
using RefResult = std::vector<RefRow>;

// Runs reference query `q` (1..22).
RefResult RunReference(int q, const engine::Database& db);

// SQL LIKE ('%' any run, '_' any one character, no escapes), implemented
// separately from the engine's LikeMatch.
bool RefLikeMatch(std::string_view value, std::string_view pattern);

// Row-at-a-time chained hash aggregation (reference_aggregate.cc), for the
// engine's HashAggregate kernels to be checked against.
struct RefAggInput {
  exec::AggFn fn;
  const storage::Column* in;  // null for kCountStar
};

// Per-group accumulators of one aggregate: `f64` holds sums (kSum, kAvg)
// and float64 min/max; `i64` holds counts (kAvg's too), integer sums and
// integer min/max, exactly.
struct RefAggState {
  exec::AggFn fn;
  const storage::Column* in;
  std::vector<double> f64;
  std::vector<int64_t> i64;
};

struct RefGroups {
  std::vector<int32_t> group_rep;  // first source row of each group
  std::vector<RefAggState> states;
  int64_t chain_steps = 0;
};

// Groups rows [begin, end) by `keys` (none: one global group) in
// first-appearance order.
RefGroups RefAggregateRange(const std::vector<const storage::Column*>& keys,
                            const std::vector<RefAggInput>& aggs,
                            int64_t begin, int64_t end);

// Re-aggregates the groups of consecutive row ranges, in range order, into
// one: the merge of a thread-chunked aggregation. Its chain_steps include
// the parts'.
RefGroups RefMergeChunks(const std::vector<const storage::Column*>& keys,
                         const std::vector<RefAggInput>& aggs,
                         const std::vector<RefGroups>& parts);

}  // namespace wimpi::tpch_ref

#endif  // WIMPI_TESTS_REFERENCE_H_
