#ifndef WIMPI_TPCH_DBGEN_H_
#define WIMPI_TPCH_DBGEN_H_

#include <memory>

#include "engine/database.h"
#include "storage/table.h"

namespace wimpi::tpch {

// Options for the TPC-H data generator. The generator is a from-scratch
// dbgen equivalent: the schema, key relationships, value distributions,
// and the query-relevant text properties follow the TPC-H specification;
// the text corpus itself is original (see text.h).
struct GenOptions {
  double scale_factor = 1.0;
  uint64_t seed = 19921201;
  // When false (default), columns no TPC-H query ever reads (l_comment,
  // o_clerk, p_comment, ps_comment, n_comment, r_comment, c_comment,
  // c_address beyond what Q10 prints) are left empty to save host memory.
  // Their logical size is still modeled (see LogicalTableBytes) so the
  // cluster memory accounting matches a full database.
  bool include_unused_text = false;
};

// Base-table cardinalities at a scale factor (lineitem is data-dependent,
// roughly 4x orders).
struct RowCounts {
  int64_t supplier;
  int64_t part;
  int64_t customer;
  int64_t orders;
  int64_t partsupp;  // 4 * part
};
RowCounts RowCountsFor(double sf);

// Deterministic generation: same options => identical database, and every
// entity's values depend only on (seed, table, primary key), never on
// generation order. Generates all eight tables. The generators below
// (except region and nation) run fixed-size key ranges in parallel on the
// process thread pool (inline when called from a pool worker); the result
// is byte-identical whatever the pool width.
engine::Database GenerateDatabase(const GenOptions& opts);

// Individual table generators (exposed for tests and partial loads).
// GenerateOrdersAndLineitem fills both tables in one pass because
// o_totalprice / o_orderstatus are derived from the order's lineitems.
std::shared_ptr<storage::Table> GenerateRegion(const GenOptions& opts);
std::shared_ptr<storage::Table> GenerateNation(const GenOptions& opts);
std::shared_ptr<storage::Table> GenerateSupplier(const GenOptions& opts);
std::shared_ptr<storage::Table> GeneratePart(const GenOptions& opts);
std::shared_ptr<storage::Table> GeneratePartsupp(const GenOptions& opts);
std::shared_ptr<storage::Table> GenerateCustomer(const GenOptions& opts);
void GenerateOrdersAndLineitem(const GenOptions& opts,
                               std::shared_ptr<storage::Table>* orders,
                               std::shared_ptr<storage::Table>* lineitem);

// The supplier assignment rule shared by partsupp and lineitem: the i-th
// (0..3) supplier of `partkey` among `num_suppliers` total.
int32_t SupplierForPart(int32_t partkey, int i, int64_t num_suppliers);

// p_retailprice as a pure function of the part key (TPC-H spec formula);
// lineitem uses it to derive l_extendedprice without a lookup.
double RetailPrice(int32_t partkey);

// Modeled in-memory bytes of a table at scale factor `sf` including the
// text columns the generator may have skipped. Used for node memory
// accounting in the cluster simulator.
double LogicalTableBytes(const std::string& table, double sf);

// TPC-H date constants (days since 1970-01-01).
int32_t StartDate();    // 1992-01-01
int32_t CurrentDate();  // 1995-06-17
int32_t EndDate();      // 1998-12-31

}  // namespace wimpi::tpch

#endif  // WIMPI_TPCH_DBGEN_H_
