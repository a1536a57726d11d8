#ifndef WIMPI_TPCH_QUERIES_H_
#define WIMPI_TPCH_QUERIES_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/aggregate.h"
#include "exec/counters.h"
#include "exec/relation.h"
#include "exec/sort.h"

namespace wimpi::tpch {

// Runs TPC-H query `q` (1..22) against `db`, returning the result relation
// and recording abstract work in `stats` (pass nullptr to skip
// instrumentation). Queries are hand-written physical plans over the
// column-at-a-time operator library; correlated subqueries are manually
// decorrelated in the standard way.
exec::Relation RunQuery(int q, const engine::Database& db,
                        exec::QueryStats* stats);

// A query written once and split at its final aggregation: `input` ->
// aggregate (`group_by` + `aggs`) -> `finish` -> `order_by`/`limit`. Run()
// is the single-node plan; the cluster derives each node's partial plan
// and the coordinator's merge from the same four parts
// (cluster/partials.h), so no query is written twice.
struct QuerySplit {
  using Input = std::function<exec::Relation(const engine::Database&,
                                             exec::QueryStats*)>;
  using Step = std::function<exec::Relation(
      const engine::Database&, exec::Relation, exec::QueryStats*)>;

  // Scans, joins and expressions up to the aggregate's input.
  Input input;
  std::vector<std::string> group_by;
  std::vector<exec::AggSpec> aggs;
  // Keyless kSum specs only: aggregate with one exec::SumF64 per spec
  // instead of a keyless exec::HashAggregate.
  bool sum_f64 = false;
  // Optional step on the aggregate's output (Q5's nation join, Q14's
  // ratio); empty when the query has none.
  Step finish;
  std::vector<exec::SortKey> order_by;  // empty: no sort
  int64_t limit = -1;

  // The final aggregation over `in`.
  exec::Relation Aggregate(const exec::Relation& in,
                           exec::QueryStats* stats) const;
  // `finish` (if any), then the sort (if any).
  exec::Relation Finish(const engine::Database& db, exec::Relation agg,
                        exec::QueryStats* stats) const;
  // The whole query on one node.
  exec::Relation Run(const engine::Database& db,
                     exec::QueryStats* stats) const;
};

// The split of query `q`, or nullopt when `q` is not written as one.
std::optional<QuerySplit> SplitOf(int q);

// The eight-query subset used by the paper for the SF 10 distributed
// experiments (the TPC-H "choke point" subset of Menon et al. / Crotty et
// al. that the paper cites).
inline constexpr int kSf10Queries[] = {1, 3, 4, 5, 6, 13, 14, 19};
inline constexpr int kNumSf10Queries = 8;

// True if query `q` is in the SF 10 subset.
bool InSf10Subset(int q);

}  // namespace wimpi::tpch

#endif  // WIMPI_TPCH_QUERIES_H_
