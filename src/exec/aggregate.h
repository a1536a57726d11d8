#ifndef WIMPI_EXEC_AGGREGATE_H_
#define WIMPI_EXEC_AGGREGATE_H_

#include <string>
#include <vector>

#include "exec/counters.h"
#include "exec/filter.h"
#include "exec/relation.h"

namespace wimpi::exec {

enum class AggFn {
  kSum,        // double result
  kSumI64,     // int64 result over int32/int64 input (distributed count
               // merges must stay integral)
  kMin,        // input type preserved (accumulated in it: int64 exact)
  kMax,        // input type preserved (accumulated in it: int64 exact)
  kCount,      // int64 result (no NULLs, so kCount == kCountStar over a col)
  kCountStar,  // int64 result; `in` ignored
  kAvg,        // double result
};

struct AggSpec {
  AggFn fn;
  std::string in;   // input column name (ignored for kCountStar)
  std::string out;  // output column name
};

// Grouped aggregation via a bucket-chained hash table on the group-key
// columns. Output columns: the group keys (each group's first-row values)
// followed by one column per AggSpec, in order. Groups come out in order
// of first appearance, and each group folds its rows in row order, at any
// thread count.
//
// The build and state loops are compiled per key shape and per (AggFn,
// input type), chosen once per call: one int32/date/string-code key, one
// int64 key, two int32-class keys packed into a u64, or a generic reader
// for anything else. Chain entries hold the key inline. Rows go through
// in batches: a batch is hashed first, its bucket heads and chain entries
// prefetched ahead of the walk, and each state then folds the batch's
// group ids in one typed loop. In parallel, each thread chunk builds its
// own table and states, and the chunks' states are merged in chunk order
// (sums add, counts add, min/max of min/max, avg as sum and count).
//
// When the leading key column never descends (lineitem on l_orderkey),
// each chunk groups its rows run by run of equal lead values instead, with
// no table, and the chunk results are concatenated; only groups a run
// carries across a chunk edge are merged. Groups, answers and OpStats are
// the hash path's: its chain_steps are counted, not walked.
//
// With an empty `group_by`, produces exactly one row (global aggregate),
// even over empty input (SQL semantics: COUNT = 0, SUM/AVG = 0 here since
// the engine has no NULLs; MIN/MAX over no rows give the type's identity,
// +/-infinity for float64 and the int type's max/lowest otherwise).
Relation HashAggregate(const ColumnSource& src,
                       const std::vector<std::string>& group_by,
                       const std::vector<AggSpec>& aggs, QueryStats* stats);

// Scalar helpers for subquery thresholds (Q11, Q15, Q17, Q22).
double SumF64(const storage::Column& col, QueryStats* stats);
double AvgF64(const storage::Column& col, QueryStats* stats);
double MaxF64(const storage::Column& col, QueryStats* stats);

}  // namespace wimpi::exec

#endif  // WIMPI_EXEC_AGGREGATE_H_
