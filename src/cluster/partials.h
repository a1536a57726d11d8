#ifndef WIMPI_CLUSTER_PARTIALS_H_
#define WIMPI_CLUSTER_PARTIALS_H_

#include <vector>

#include "engine/database.h"
#include "exec/counters.h"
#include "exec/relation.h"
#include "tpch/queries.h"

namespace wimpi::cluster {

// Distributed execution of the paper's SF-10 queries, in the style of the
// paper's driver: each node runs a partial plan against its local lineitem
// partition (all other tables replicated), and the coordinator merges the
// partial results. Both plans are derived from the query's single-node
// definition, tpch::QuerySplit, by one of three rules (DESIGN.md §6):
//   - grouped: the node aggregates decomposed states (AVG as SUM and
//     COUNT(*)); the coordinator folds them by key, divides, finishes and
//     sorts;
//   - disjoint groups: the keys include the partition key and there is no
//     finish step, so the node runs the whole aggregate and its top-k, and
//     the coordinator re-sorts the concatenation;
//   - keyless sums: the node sums each column into one row; the coordinator
//     sums those rows and finishes.
// A query without a split (Q13, which never touches lineitem) runs whole
// on one node and the "partial" is already the answer -- exactly the
// behaviour Table III shows (no speedup at any cluster size).

// True if `q` fans out across nodes: it is written as a tpch::QuerySplit.
bool QueryFansOut(int q);

// Runs the partial plan for query `q` on one node's database.
exec::Relation RunPartial(int q, const engine::Database& node_db,
                          exec::QueryStats* stats);

// Merges partial results on the coordinator (`coord_db` supplies small
// replicated tables like nation). The merged relation equals the
// single-node RunQuery output.
exec::Relation MergePartials(int q, const engine::Database& coord_db,
                             std::vector<exec::Relation> partials,
                             exec::QueryStats* stats);

// The same two plans derived from any split whose lineitem-derived input
// is partitioned on kPartitionKey.
exec::Relation RunPartial(const tpch::QuerySplit& split,
                          const engine::Database& node_db,
                          exec::QueryStats* stats);
exec::Relation MergePartials(const tpch::QuerySplit& split,
                             const engine::Database& coord_db,
                             std::vector<exec::Relation> partials,
                             exec::QueryStats* stats);

}  // namespace wimpi::cluster

#endif  // WIMPI_CLUSTER_PARTIALS_H_
