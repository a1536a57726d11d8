#ifndef WIMPI_EXEC_FILTER_H_
#define WIMPI_EXEC_FILTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/counters.h"
#include "exec/relation.h"
#include "storage/table.h"

namespace wimpi::exec {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// One conjunct of a scan filter. Factory functions cover every predicate
// shape in TPC-H; string predicates are evaluated once per dictionary entry
// (a code bitmap) and then applied to the code column, which is both how a
// dictionary-encoded column store really does it and what makes the Pi's
// strong compute / weak bandwidth trade-off visible in the model.
class Predicate {
 public:
  enum class Kind {
    kCmpI32,  // also dates
    kCmpI64,
    kCmpF64,
    kBetweenI32,
    kBetweenF64,
    kInI32,
    kStrPred,  // arbitrary per-dictionary-value test
  };

  // Shape hint for kStrPred conjuncts. The dictionary test itself is an
  // opaque lambda; the factory that built it records what it means so a
  // cardinality estimator can pick a selectivity formula (eq -> 1/NDV,
  // in -> k/NDV, like/generic -> defaults). Purely observational.
  enum class StrHint {
    kNone,     // not a string predicate
    kEq,
    kNe,
    kIn,       // str_hint_count() values
    kLike,
    kNotLike,
    kGeneric,  // arbitrary StrTest
  };

  static Predicate CmpI32(std::string col, CmpOp op, int32_t v);
  static Predicate CmpDate(std::string col, CmpOp op, int32_t days) {
    return CmpI32(std::move(col), op, days);
  }
  static Predicate CmpI64(std::string col, CmpOp op, int64_t v);
  static Predicate CmpF64(std::string col, CmpOp op, double v);
  // Inclusive ranges.
  static Predicate BetweenI32(std::string col, int32_t lo, int32_t hi);
  static Predicate BetweenDate(std::string col, int32_t lo, int32_t hi) {
    return BetweenI32(std::move(col), lo, hi);
  }
  static Predicate BetweenF64(std::string col, double lo, double hi);
  static Predicate InI32(std::string col, std::vector<int32_t> values);

  // String predicates (dictionary-evaluated).
  static Predicate StrEq(std::string col, std::string value);
  static Predicate StrNe(std::string col, std::string value);
  static Predicate StrIn(std::string col, std::vector<std::string> values);
  static Predicate Like(std::string col, std::string pattern);
  static Predicate NotLike(std::string col, std::string pattern);
  // Arbitrary test; `cost_per_value` is the abstract compute units charged
  // per dictionary entry when building the code bitmap.
  static Predicate StrTest(std::string col,
                           std::function<bool(std::string_view)> test,
                           double cost_per_value);

  Kind kind() const { return kind_; }
  const std::string& column_name() const { return col_; }

  // Read-only views for cardinality estimation (stats::StatsRegistry).
  // Which fields are meaningful depends on kind(): cmp kinds use op() and
  // the lo value; between kinds use [lo, hi]; kInI32 uses in_values();
  // kStrPred uses str_hint()/str_hint_count().
  CmpOp op() const { return op_; }
  int64_t i64_lo() const { return i64_; }
  int64_t i64_hi() const { return i64_hi_; }
  double f64_lo() const { return f64_; }
  double f64_hi() const { return f64_hi_; }
  const std::vector<int32_t>& in_values() const { return in_values_; }
  StrHint str_hint() const { return str_hint_; }
  int str_hint_count() const { return str_hint_count_; }

 private:
  friend class FilterRunner;
  Predicate() = default;

  Kind kind_ = Kind::kCmpI32;
  std::string col_;
  CmpOp op_ = CmpOp::kEq;
  int64_t i64_ = 0;
  int64_t i64_hi_ = 0;
  double f64_ = 0;
  double f64_hi_ = 0;
  std::vector<int32_t> in_values_;
  std::function<bool(std::string_view)> str_test_;
  double str_cost_ = 1.0;
  StrHint str_hint_ = StrHint::kNone;
  int str_hint_count_ = 0;
};

// A source of named columns: either a base table or an intermediate
// relation. Cheap to copy.
class ColumnSource {
 public:
  explicit ColumnSource(const storage::Table& t)
      : table_(&t), rows_(t.num_rows()) {}
  explicit ColumnSource(const Relation& r)
      : relation_(&r), rows_(r.num_rows()) {}

  const storage::Column& column(const std::string& name) const {
    return table_ != nullptr ? table_->column(name)
                             : relation_->column(name);
  }
  int64_t rows() const { return rows_; }

  // Non-null when this source is a base table (used for working-set
  // accounting).
  const storage::Table* table() const { return table_; }

 private:
  const storage::Table* table_ = nullptr;
  const Relation* relation_ = nullptr;
  int64_t rows_ = 0;
};

// Applies a conjunction of predicates; returns selected row ids in
// ascending order. If `base` is non-null, refines that selection instead of
// scanning all rows.
SelVec Filter(const ColumnSource& src, const std::vector<Predicate>& preds,
              QueryStats* stats, const SelVec* base = nullptr);

// Column-vs-column comparison filter (e.g. l_commitdate < l_receiptdate in
// Q4/Q12/Q21, l_quantity < limit in Q17/Q20). Both columns must have the
// same width class: int32/date vs int32/date, int64 vs int64, or float64 vs
// float64. Refines `base` when given.
SelVec FilterColCmpCol(const ColumnSource& src, const std::string& a,
                       CmpOp op, const std::string& b, QueryStats* stats,
                       const SelVec* base = nullptr);

// Sorted-merge union of selection vectors (for disjunctions, e.g. Q19).
SelVec UnionSel(const std::vector<const SelVec*>& sels, QueryStats* stats);

// Materializes `src[sel]` into a fresh column.
std::unique_ptr<storage::Column> Gather(const storage::Column& src,
                                        const SelVec& sel,
                                        QueryStats* stats);

// Gathers several columns at once into a Relation with the given output
// names ({{"l_orderkey", "okey"}, ...}); pass the same name twice to keep it.
Relation GatherColumns(
    const ColumnSource& src,
    const std::vector<std::pair<std::string, std::string>>& cols,
    const SelVec& sel, QueryStats* stats);

// Every row of columns `cols` of base table `t`, borrowed: the relation
// reads the table's own columns and copies no value, so it must not
// outlive `t`. Its profile scopes, base-column touches and counters are
// those of GatherColumns over the identity selection: the model still
// charges the copy a column-at-a-time engine makes (DESIGN.md §3).
Relation ScanAll(const storage::Table& t, const std::vector<std::string>& cols,
                 QueryStats* stats);

// Gathers by explicit indices where -1 yields `def` (left outer join fill).
std::unique_ptr<storage::Column> GatherWithDefault(
    const storage::Column& src, const std::vector<int32_t>& idx, double def,
    QueryStats* stats);

}  // namespace wimpi::exec

#endif  // WIMPI_EXEC_FILTER_H_
