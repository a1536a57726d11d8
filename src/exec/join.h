#ifndef WIMPI_EXEC_JOIN_H_
#define WIMPI_EXEC_JOIN_H_

#include <vector>

#include "exec/counters.h"
#include "exec/relation.h"
#include "storage/column.h"

namespace wimpi::exec {

enum class JoinKind {
  kInner,      // emit every (build, probe) match pair
  kSemi,       // emit probe rows with >= 1 match
  kAnti,       // emit probe rows with no match
  kLeftOuter,  // probe side is the outer: unmatched probe rows emit
               // build_idx = -1
};

// Join output as row-index vectors into the two inputs; callers gather the
// payload columns they need (full materialization, MonetDB style).
struct JoinResult {
  std::vector<int32_t> build_idx;  // empty for kSemi/kAnti
  std::vector<int32_t> probe_idx;
};

// Equi-join via a bucket-chained hash table on the build side. Key columns
// are compared value-wise, so multi-column keys of any supported type work;
// string keys require both sides to share a dictionary (true for all tables
// in this codebase, including cluster partitions).
//
// The table is `head`/`next` chains over bit_ceil(2 * n_build) buckets,
// each row linked at its bucket's head. When the probe side has at least
// as many rows as there are buckets, each bucket also gets a 16-bit filter
// word: an 8-bit tag set (bit h >> 61 of every linked row's hash) and the
// chain length, saturating at 255. A probe row whose tag bit is absent
// cannot match, so it skips the walk and counts the chain length instead;
// `chain_steps`, and so the OpStats, are those of a walk of every chain.
// Both sides must fit int32_t row ids.
JoinResult HashJoin(const std::vector<const storage::Column*>& build_keys,
                    const std::vector<const storage::Column*>& probe_keys,
                    JoinKind kind, QueryStats* stats);

}  // namespace wimpi::exec

#endif  // WIMPI_EXEC_JOIN_H_
