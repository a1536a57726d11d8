#ifndef WIMPI_TPCH_QUERIES_IMPL_H_
#define WIMPI_TPCH_QUERIES_IMPL_H_

// Internal declarations of the per-query entry points; use RunQuery and
// SplitOf from queries.h instead. Queries written as a QuerySplit declare
// SplitQ<n> in place of RunQ<n>.

#include "engine/database.h"
#include "exec/counters.h"
#include "exec/relation.h"
#include "tpch/queries.h"

namespace wimpi::tpch {

#define WIMPI_DECLARE_QUERY(n)                              \
  exec::Relation RunQ##n(const engine::Database& db,        \
                         exec::QueryStats* stats)
WIMPI_DECLARE_QUERY(2);
WIMPI_DECLARE_QUERY(7);
WIMPI_DECLARE_QUERY(8);
WIMPI_DECLARE_QUERY(9);
WIMPI_DECLARE_QUERY(10);
WIMPI_DECLARE_QUERY(11);
WIMPI_DECLARE_QUERY(12);
WIMPI_DECLARE_QUERY(13);
WIMPI_DECLARE_QUERY(15);
WIMPI_DECLARE_QUERY(16);
WIMPI_DECLARE_QUERY(17);
WIMPI_DECLARE_QUERY(18);
WIMPI_DECLARE_QUERY(20);
WIMPI_DECLARE_QUERY(21);
WIMPI_DECLARE_QUERY(22);
#undef WIMPI_DECLARE_QUERY

QuerySplit SplitQ1();
QuerySplit SplitQ3();
QuerySplit SplitQ4();
QuerySplit SplitQ5();
QuerySplit SplitQ6();
QuerySplit SplitQ14();
QuerySplit SplitQ19();

}  // namespace wimpi::tpch

#endif  // WIMPI_TPCH_QUERIES_IMPL_H_
