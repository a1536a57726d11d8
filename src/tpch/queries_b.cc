// TPC-H queries 12-22 plus the RunQuery registry. See queries_a.cc.
#include "common/date.h"
#include "common/strings.h"
#include "exec/exec_options.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/queries_impl.h"
#include "tpch/query_utils.h"

namespace wimpi::tpch {

using engine::Database;
using exec::CastF64;
using exec::HashAggregate;
using exec::MaskedF64;
using exec::MaxF64;
using exec::MulConstF64;
using exec::SortRelation;
using exec::StrMatchMask;
using exec::SumF64;

namespace {

// 0/1 mask as a float64 column (for conditional counts like Q12).
std::unique_ptr<storage::Column> MaskToF64(const std::vector<uint8_t>& mask,
                                           QueryStats* stats) {
  auto col = std::make_unique<storage::Column>(storage::DataType::kFloat64);
  auto& v = col->MutableF64();
  v.resize(mask.size());
  for (size_t i = 0; i < mask.size(); ++i) v[i] = mask[i] != 0 ? 1.0 : 0.0;
  if (stats != nullptr) {
    exec::OpStats op;
    op.op = "mask_to_f64";
    op.compute_ops = static_cast<double>(mask.size());
    op.seq_bytes = static_cast<double>(mask.size()) * 9;
    op.output_bytes = static_cast<double>(mask.size()) * 8;
    op.rows_in = static_cast<double>(mask.size());
    op.rows_out = static_cast<double>(mask.size());
    if (exec::CurrentExecOptions().cardinality_estimator != nullptr) {
      op.est_rows = static_cast<double>(mask.size());  // element-wise map
    }
    stats->Add(std::move(op));
  }
  return col;
}

std::unique_ptr<storage::Column> AddConstI32(const storage::Column& a,
                                             int32_t c, QueryStats* stats) {
  auto col = std::make_unique<storage::Column>(storage::DataType::kInt32);
  auto& v = col->MutableI32();
  const int64_t n = a.size();
  v.resize(n);
  const int32_t* d = a.I32Data();
  for (int64_t i = 0; i < n; ++i) v[i] = d[i] + c;
  if (stats != nullptr) {
    exec::OpStats op;
    op.op = "add_const_i32";
    op.compute_ops = static_cast<double>(n);
    op.seq_bytes = static_cast<double>(n) * 8;
    op.output_bytes = static_cast<double>(n) * 4;
    op.rows_in = static_cast<double>(n);
    op.rows_out = static_cast<double>(n);
    if (exec::CurrentExecOptions().cardinality_estimator != nullptr) {
      op.est_rows = static_cast<double>(n);  // element-wise map
    }
    stats->Add(std::move(op));
  }
  return col;
}

}  // namespace

exec::Relation RunQ12(const Database& db, QueryStats* stats) {
  const storage::Table& l = db.table("lineitem");
  const ColumnSource lsrc(l);
  const int32_t lo = ParseDate("1994-01-01");
  SelVec sel = exec::Filter(
      lsrc,
      {Predicate::StrIn("l_shipmode", {"MAIL", "SHIP"}),
       Predicate::BetweenDate("l_receiptdate", lo,
                              DateAddMonths(lo, 12) - 1)},
      stats);
  sel = exec::FilterColCmpCol(lsrc, "l_commitdate", CmpOp::kLt,
                              "l_receiptdate", stats, &sel);
  sel = exec::FilterColCmpCol(lsrc, "l_shipdate", CmpOp::kLt, "l_commitdate",
                              stats, &sel);
  Relation line = exec::GatherColumns(lsrc, Cols({"l_orderkey", "l_shipmode"}),
                                      sel, stats);

  Relation orders =
      ScanAll(db.table("orders"), {"o_orderkey", "o_orderpriority"}, stats);
  Relation j =
      JoinGather(orders, {"o_orderkey"}, {"o_orderpriority"}, line,
                 {"l_orderkey"}, {"l_shipmode"}, JoinKind::kInner, stats);

  const auto high = StrMatchMask(
      j.column("o_orderpriority"),
      [](std::string_view s) { return s == "1-URGENT" || s == "2-HIGH"; },
      2.0, stats);
  auto high_col = MaskToF64(high, stats);
  std::vector<uint8_t> low(high.size());
  for (size_t i = 0; i < high.size(); ++i) low[i] = high[i] == 0 ? 1 : 0;
  j.AddColumn("high", std::move(high_col));
  j.AddColumn("low", MaskToF64(low, stats));

  Relation agg = HashAggregate(ColumnSource(j), {"l_shipmode"},
                               {{AggFn::kSum, "high", "high_line_count"},
                                {AggFn::kSum, "low", "low_line_count"}},
                               stats);
  return SortRelation(agg, {{"l_shipmode", true}}, stats);
}

exec::Relation RunQ13(const Database& db, QueryStats* stats) {
  Relation orders = ScanGather(
      db.table("orders"),
      {Predicate::NotLike("o_comment", "%special%requests%")}, {"o_custkey"},
      stats);
  Relation per_cust = HashAggregate(ColumnSource(orders), {"o_custkey"},
                                    {{AggFn::kCountStar, "", "c_count"}},
                                    stats);
  Relation cust = ScanAll(db.table("customer"), {"c_custkey"}, stats);
  // Left outer: customers without orders get c_count = 0.
  Relation j = JoinGather(per_cust, {"o_custkey"}, {"c_count"}, cust,
                          {"c_custkey"}, {"c_custkey"}, JoinKind::kLeftOuter,
                          stats);
  Relation agg = HashAggregate(ColumnSource(j), {"c_count"},
                               {{AggFn::kCountStar, "", "custdist"}}, stats);
  return SortRelation(agg, {{"custdist", false}, {"c_count", false}}, stats);
}

QuerySplit SplitQ14() {
  QuerySplit s;
  s.input = [](const Database& db, QueryStats* stats) {
    const int32_t lo = ParseDate("1995-09-01");
    Relation line = ScanGather(
        db.table("lineitem"),
        {Predicate::BetweenDate("l_shipdate", lo, DateAddMonths(lo, 1) - 1)},
        {"l_partkey", "l_extendedprice", "l_discount"}, stats);
    Relation parts =
        ScanAll(db.table("part"), {"p_partkey", "p_type"}, stats);
    Relation j = JoinGather(parts, {"p_partkey"}, {"p_type"}, line,
                            {"l_partkey"}, {"l_extendedprice", "l_discount"},
                            JoinKind::kInner, stats);
    AddRevenue(&j, "rev", stats);
    const auto promo = StrMatchMask(
        j.column("p_type"),
        [](std::string_view s) { return StartsWith(s, "PROMO"); }, 3.0,
        stats);
    j.AddColumn("promo_rev", MaskedF64(j.column("rev"), promo, stats));
    return j;
  };
  s.aggs = {{AggFn::kSum, "promo_rev", "promo"},
            {AggFn::kSum, "rev", "total"}};
  s.sum_f64 = true;
  s.finish = [](const Database&, Relation sums, QueryStats*) {
    const double promo = sums.column("promo").F64Data()[0];
    const double total = sums.column("total").F64Data()[0];
    return ScalarRelation({"promo_revenue"},
                          {total == 0 ? 0 : 100.0 * promo / total});
  };
  return s;
}

exec::Relation RunQ15(const Database& db, QueryStats* stats) {
  const int32_t lo = ParseDate("1996-01-01");
  Relation line = ScanGather(
      db.table("lineitem"),
      {Predicate::BetweenDate("l_shipdate", lo, DateAddMonths(lo, 3) - 1)},
      {"l_suppkey", "l_extendedprice", "l_discount"}, stats);
  AddRevenue(&line, "rev", stats);
  Relation revenue = HashAggregate(ColumnSource(line), {"l_suppkey"},
                                   {{AggFn::kSum, "rev", "total_revenue"}},
                                   stats);
  const double best = MaxF64(revenue.column("total_revenue"), stats);
  const SelVec top = exec::Filter(
      ColumnSource(revenue),
      {Predicate::CmpF64("total_revenue", CmpOp::kGe, best)}, stats);
  Relation winners = exec::GatherColumns(
      ColumnSource(revenue), Cols({"l_suppkey", "total_revenue"}), top,
      stats);
  Relation supp = ScanAll(db.table("supplier"),
                          {"s_suppkey", "s_name", "s_address", "s_phone"},
                          stats);
  Relation j = JoinGather(winners, {"l_suppkey"}, {"total_revenue"}, supp,
                          {"s_suppkey"},
                          {"s_suppkey", "s_name", "s_address", "s_phone"},
                          JoinKind::kInner, stats);
  return SortRelation(j, {{"s_suppkey", true}}, stats);
}

exec::Relation RunQ16(const Database& db, QueryStats* stats) {
  Relation parts = ScanGather(
      db.table("part"),
      {Predicate::StrNe("p_brand", "Brand#45"),
       Predicate::NotLike("p_type", "MEDIUM POLISHED%"),
       Predicate::InI32("p_size", {49, 14, 23, 45, 19, 3, 36, 9})},
      {"p_partkey", "p_brand", "p_type", "p_size"}, stats);

  Relation bad_supp = ScanGather(
      db.table("supplier"),
      {Predicate::Like("s_comment", "%Customer%Complaints%")}, {"s_suppkey"},
      stats);
  Relation ps =
      ScanAll(db.table("partsupp"), {"ps_partkey", "ps_suppkey"}, stats);
  Relation good_ps =
      JoinGather(bad_supp, {"s_suppkey"}, {}, ps, {"ps_suppkey"},
                 {"ps_partkey", "ps_suppkey"}, JoinKind::kAnti, stats);

  Relation j = JoinGather(parts, {"p_partkey"},
                          {"p_brand", "p_type", "p_size"}, good_ps,
                          {"ps_partkey"}, {"ps_suppkey"}, JoinKind::kInner,
                          stats);
  // COUNT(DISTINCT ps_suppkey): dedup on the full grouping + suppkey, then
  // count per group.
  Relation dedup = HashAggregate(
      ColumnSource(j), {"p_brand", "p_type", "p_size", "ps_suppkey"},
      {{AggFn::kCountStar, "", "ignore"}}, stats);
  Relation agg =
      HashAggregate(ColumnSource(dedup), {"p_brand", "p_type", "p_size"},
                    {{AggFn::kCountStar, "", "supplier_cnt"}}, stats);
  return SortRelation(agg,
                      {{"supplier_cnt", false},
                       {"p_brand", true},
                       {"p_type", true},
                       {"p_size", true}},
                      stats);
}

exec::Relation RunQ17(const Database& db, QueryStats* stats) {
  Relation parts = ScanGather(
      db.table("part"),
      {Predicate::StrEq("p_brand", "Brand#23"),
       Predicate::StrEq("p_container", "MED BOX")},
      {"p_partkey"}, stats);
  Relation line = ScanAll(db.table("lineitem"),
                          {"l_partkey", "l_quantity", "l_extendedprice"},
                          stats);
  Relation j = JoinGather(parts, {"p_partkey"}, {}, line, {"l_partkey"},
                          {"l_partkey", "l_quantity", "l_extendedprice"},
                          JoinKind::kSemi, stats);
  Relation avg = HashAggregate(ColumnSource(j), {"l_partkey"},
                               {{AggFn::kAvg, "l_quantity", "avg_qty"}},
                               stats);
  avg.AddColumn("limit_qty", MulConstF64(avg.column("avg_qty"), 0.2, stats));
  Relation j2 = JoinGather(avg, {"l_partkey"}, {"limit_qty"}, j,
                           {"l_partkey"}, {"l_quantity", "l_extendedprice"},
                           JoinKind::kInner, stats);
  const SelVec below = exec::FilterColCmpCol(
      ColumnSource(j2), "l_quantity", CmpOp::kLt, "limit_qty", stats);
  Relation kept = exec::GatherColumns(ColumnSource(j2),
                                      Cols({"l_extendedprice"}), below,
                                      stats);
  const double total = SumF64(kept.column("l_extendedprice"), stats);
  return ScalarRelation({"avg_yearly"}, {total / 7.0});
}

exec::Relation RunQ18(const Database& db, QueryStats* stats) {
  Relation line =
      ScanAll(db.table("lineitem"), {"l_orderkey", "l_quantity"}, stats);
  Relation per_order = HashAggregate(ColumnSource(line), {"l_orderkey"},
                                     {{AggFn::kSum, "l_quantity", "sum_qty"}},
                                     stats);
  const SelVec big = exec::Filter(
      ColumnSource(per_order),
      {Predicate::CmpF64("sum_qty", CmpOp::kGt, 300)}, stats);
  Relation big_orders = exec::GatherColumns(
      ColumnSource(per_order), Cols({"l_orderkey", "sum_qty"}), big, stats);

  Relation orders =
      ScanAll(db.table("orders"),
              {"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"},
              stats);
  Relation j = JoinGather(
      big_orders, {"l_orderkey"}, {"sum_qty"}, orders, {"o_orderkey"},
      {"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"},
      JoinKind::kInner, stats);
  Relation cust =
      ScanAll(db.table("customer"), {"c_custkey", "c_name"}, stats);
  Relation j2 = JoinGather(
      cust, {"c_custkey"}, {"c_name", "c_custkey"}, j, {"o_custkey"},
      {"o_orderkey", "o_orderdate", "o_totalprice", "sum_qty"},
      JoinKind::kInner, stats);
  return SortRelation(j2, {{"o_totalprice", false}, {"o_orderdate", true}},
                      stats, 100);
}

QuerySplit SplitQ19() {
  QuerySplit s;
  s.input = [](const Database& db, QueryStats* stats) {
    Relation line = ScanGather(
        db.table("lineitem"),
        {Predicate::StrEq("l_shipinstruct", "DELIVER IN PERSON"),
         Predicate::StrIn("l_shipmode", {"AIR", "AIR REG"})},
        {"l_partkey", "l_quantity", "l_extendedprice", "l_discount"}, stats);
    Relation parts = ScanAll(db.table("part"),
                             {"p_partkey", "p_brand", "p_container", "p_size"},
                             stats);
    Relation j = JoinGather(
        parts, {"p_partkey"}, {"p_brand", "p_container", "p_size"}, line,
        {"l_partkey"}, {"l_quantity", "l_extendedprice", "l_discount"},
        JoinKind::kInner, stats);

    const ColumnSource src(j);
    const SelVec b1 = exec::Filter(
        src,
        {Predicate::StrEq("p_brand", "Brand#12"),
         Predicate::StrIn("p_container",
                          {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}),
         Predicate::BetweenF64("l_quantity", 1, 11),
         Predicate::BetweenI32("p_size", 1, 5)},
        stats);
    const SelVec b2 = exec::Filter(
        src,
        {Predicate::StrEq("p_brand", "Brand#23"),
         Predicate::StrIn("p_container",
                          {"MED BAG", "MED BOX", "MED PKG", "MED PACK"}),
         Predicate::BetweenF64("l_quantity", 10, 20),
         Predicate::BetweenI32("p_size", 1, 10)},
        stats);
    const SelVec b3 = exec::Filter(
        src,
        {Predicate::StrEq("p_brand", "Brand#34"),
         Predicate::StrIn("p_container",
                          {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}),
         Predicate::BetweenF64("l_quantity", 20, 30),
         Predicate::BetweenI32("p_size", 1, 15)},
        stats);
    const SelVec all = exec::UnionSel({&b1, &b2, &b3}, stats);
    Relation kept = exec::GatherColumns(
        src, Cols({"l_extendedprice", "l_discount"}), all, stats);
    AddRevenue(&kept, "rev", stats);
    return kept;
  };
  s.aggs = {{AggFn::kSum, "rev", "revenue"}};
  s.sum_f64 = true;
  return s;
}

exec::Relation RunQ20(const Database& db, QueryStats* stats) {
  const int32_t canada = NationKey(db, "CANADA");
  Relation parts = ScanGather(db.table("part"),
                              {Predicate::Like("p_name", "forest%")},
                              {"p_partkey"}, stats);
  const int32_t lo = ParseDate("1994-01-01");
  Relation line = ScanGather(
      db.table("lineitem"),
      {Predicate::BetweenDate("l_shipdate", lo, DateAddMonths(lo, 12) - 1)},
      {"l_partkey", "l_suppkey", "l_quantity"}, stats);
  Relation fl = JoinGather(parts, {"p_partkey"}, {}, line, {"l_partkey"},
                           {"l_partkey", "l_suppkey", "l_quantity"},
                           JoinKind::kSemi, stats);
  Relation shipped = HashAggregate(
      ColumnSource(fl), {"l_partkey", "l_suppkey"},
      {{AggFn::kSum, "l_quantity", "sum_qty"}}, stats);
  shipped.AddColumn("half_qty",
                    MulConstF64(shipped.column("sum_qty"), 0.5, stats));

  Relation ps = ScanAll(db.table("partsupp"),
                        {"ps_partkey", "ps_suppkey", "ps_availqty"}, stats);
  Relation j = JoinGather(shipped, {"l_partkey", "l_suppkey"}, {"half_qty"},
                          ps, {"ps_partkey", "ps_suppkey"},
                          {"ps_suppkey", "ps_availqty"}, JoinKind::kInner,
                          stats);
  j.AddColumn("availqty_f", CastF64(j.column("ps_availqty"), stats));
  const SelVec enough = exec::FilterColCmpCol(
      ColumnSource(j), "availqty_f", CmpOp::kGt, "half_qty", stats);
  Relation suppliers = exec::GatherColumns(ColumnSource(j),
                                           Cols({"ps_suppkey"}), enough,
                                           stats);
  Relation distinct = HashAggregate(ColumnSource(suppliers), {"ps_suppkey"},
                                    {{AggFn::kCountStar, "", "ignore"}},
                                    stats);

  Relation supp = ScanGather(
      db.table("supplier"),
      {Predicate::CmpI32("s_nationkey", CmpOp::kEq, canada)},
      {"s_suppkey", "s_name", "s_address"}, stats);
  Relation out =
      JoinGather(distinct, {"ps_suppkey"}, {}, supp, {"s_suppkey"},
                 {"s_name", "s_address"}, JoinKind::kSemi, stats);
  return SortRelation(out, {{"s_name", true}}, stats);
}

exec::Relation RunQ21(const Database& db, QueryStats* stats) {
  const int32_t saudi = NationKey(db, "SAUDI ARABIA");
  const storage::Table& l = db.table("lineitem");
  const ColumnSource lsrc(l);

  // Distinct suppliers per order, over all lineitems and over late ones.
  Relation lkeys = ScanAll(l, {"l_orderkey", "l_suppkey"}, stats);
  Relation pairs =
      HashAggregate(ColumnSource(lkeys), {"l_orderkey", "l_suppkey"},
                    {{AggFn::kCountStar, "", "n"}}, stats);
  Relation n_supp_all = HashAggregate(ColumnSource(pairs), {"l_orderkey"},
                                      {{AggFn::kCountStar, "", "n_supp"}},
                                      stats);

  const SelVec late = exec::FilterColCmpCol(lsrc, "l_receiptdate", CmpOp::kGt,
                                            "l_commitdate", stats);
  Relation late_rows = exec::GatherColumns(
      lsrc, Cols({"l_orderkey", "l_suppkey"}), late, stats);
  Relation late_pairs =
      HashAggregate(ColumnSource(late_rows), {"l_orderkey", "l_suppkey"},
                    {{AggFn::kCountStar, "", "n"}}, stats);
  Relation n_supp_late =
      HashAggregate(ColumnSource(late_pairs), {"l_orderkey"},
                    {{AggFn::kCountStar, "", "n_late"}}, stats);

  // l1 candidates: late lineitems of 'F' orders.
  Relation orders_f = ScanGather(db.table("orders"),
                                 {Predicate::StrEq("o_orderstatus", "F")},
                                 {"o_orderkey"}, stats);
  Relation l1 = JoinGather(orders_f, {"o_orderkey"}, {}, late_rows,
                           {"l_orderkey"}, {"l_orderkey", "l_suppkey"},
                           JoinKind::kSemi, stats);

  // EXISTS other-supplier lineitem: orders with > 1 distinct supplier.
  const SelVec multi = exec::Filter(
      ColumnSource(n_supp_all),
      {Predicate::CmpI64("n_supp", CmpOp::kGt, 1)}, stats);
  Relation multi_orders = exec::GatherColumns(ColumnSource(n_supp_all),
                                              Cols({"l_orderkey"}), multi,
                                              stats);
  l1 = JoinGather(multi_orders, {"l_orderkey"}, {}, l1, {"l_orderkey"},
                  {"l_orderkey", "l_suppkey"}, JoinKind::kSemi, stats);

  // NOT EXISTS other late supplier: orders whose late lineitems all come
  // from a single supplier.
  const SelVec solo = exec::Filter(
      ColumnSource(n_supp_late),
      {Predicate::CmpI64("n_late", CmpOp::kEq, 1)}, stats);
  Relation solo_orders = exec::GatherColumns(ColumnSource(n_supp_late),
                                             Cols({"l_orderkey"}), solo,
                                             stats);
  l1 = JoinGather(solo_orders, {"l_orderkey"}, {}, l1, {"l_orderkey"},
                  {"l_orderkey", "l_suppkey"}, JoinKind::kSemi, stats);

  // Saudi suppliers, then count waits per supplier name.
  Relation supp = ScanGather(
      db.table("supplier"),
      {Predicate::CmpI32("s_nationkey", CmpOp::kEq, saudi)},
      {"s_suppkey", "s_name"}, stats);
  Relation named = JoinGather(supp, {"s_suppkey"}, {"s_name"}, l1,
                              {"l_suppkey"}, {}, JoinKind::kInner, stats);
  Relation agg = HashAggregate(ColumnSource(named), {"s_name"},
                               {{AggFn::kCountStar, "", "numwait"}}, stats);
  return SortRelation(agg, {{"numwait", false}, {"s_name", true}}, stats,
                      100);
}

exec::Relation RunQ22(const Database& db, QueryStats* stats) {
  const std::vector<std::string> codes = {"13", "31", "23", "29",
                                          "30", "18", "17"};
  Relation cust = ScanGather(
      db.table("customer"),
      {Predicate::StrTest(
          "c_phone",
          [codes](std::string_view s) {
            if (s.size() < 2) return false;
            const std::string_view prefix = s.substr(0, 2);
            for (const auto& c : codes) {
              if (prefix == c) return true;
            }
            return false;
          },
          4.0)},
      {"c_custkey", "c_acctbal", "c_nationkey"}, stats);
  // cntrycode == 10 + c_nationkey by the generator's phone rule.
  cust.AddColumn("cntrycode", AddConstI32(cust.column("c_nationkey"), 10,
                                          stats));

  // AVG over customers with positive balance in those codes.
  const SelVec positive = exec::Filter(
      ColumnSource(cust), {Predicate::CmpF64("c_acctbal", CmpOp::kGt, 0.0)},
      stats);
  Relation pos = exec::GatherColumns(ColumnSource(cust),
                                     Cols({"c_acctbal"}), positive, stats);
  const double avg = exec::AvgF64(pos.column("c_acctbal"), stats);

  const SelVec rich = exec::Filter(
      ColumnSource(cust), {Predicate::CmpF64("c_acctbal", CmpOp::kGt, avg)},
      stats);
  Relation rich_cust = exec::GatherColumns(
      ColumnSource(cust), Cols({"c_custkey", "c_acctbal", "cntrycode"}),
      rich, stats);

  Relation orders = ScanAll(db.table("orders"), {"o_custkey"}, stats);
  Relation no_orders = JoinGather(orders, {"o_custkey"}, {}, rich_cust,
                                  {"c_custkey"}, {"cntrycode", "c_acctbal"},
                                  JoinKind::kAnti, stats);
  Relation agg = HashAggregate(ColumnSource(no_orders), {"cntrycode"},
                               {{AggFn::kCountStar, "", "numcust"},
                                {AggFn::kSum, "c_acctbal", "totacctbal"}},
                               stats);
  return SortRelation(agg, {{"cntrycode", true}}, stats);
}

Relation QuerySplit::Aggregate(const Relation& in, QueryStats* stats) const {
  if (sum_f64) {
    WIMPI_CHECK(group_by.empty()) << "SumF64 aggregates are keyless";
    return ScalarSums(in, aggs, stats);
  }
  return HashAggregate(ColumnSource(in), group_by, aggs, stats);
}

Relation QuerySplit::Finish(const Database& db, Relation agg,
                            QueryStats* stats) const {
  if (finish) agg = finish(db, std::move(agg), stats);
  if (order_by.empty()) return agg;
  return SortRelation(agg, order_by, stats, limit);
}

Relation QuerySplit::Run(const Database& db, QueryStats* stats) const {
  return Finish(db, Aggregate(input(db, stats), stats), stats);
}

std::optional<QuerySplit> SplitOf(int q) {
  switch (q) {
    case 1: return SplitQ1();
    case 3: return SplitQ3();
    case 4: return SplitQ4();
    case 5: return SplitQ5();
    case 6: return SplitQ6();
    case 14: return SplitQ14();
    case 19: return SplitQ19();
    default: return std::nullopt;
  }
}

exec::Relation RunQuery(int q, const Database& db, QueryStats* stats) {
  if (const std::optional<QuerySplit> split = SplitOf(q)) {
    return split->Run(db, stats);
  }
  switch (q) {
    case 2: return RunQ2(db, stats);
    case 7: return RunQ7(db, stats);
    case 8: return RunQ8(db, stats);
    case 9: return RunQ9(db, stats);
    case 10: return RunQ10(db, stats);
    case 11: return RunQ11(db, stats);
    case 12: return RunQ12(db, stats);
    case 13: return RunQ13(db, stats);
    case 15: return RunQ15(db, stats);
    case 16: return RunQ16(db, stats);
    case 17: return RunQ17(db, stats);
    case 18: return RunQ18(db, stats);
    case 20: return RunQ20(db, stats);
    case 21: return RunQ21(db, stats);
    case 22: return RunQ22(db, stats);
    default:
      WIMPI_CHECK(false) << "no such TPC-H query: " << q;
      return exec::Relation();
  }
}

bool InSf10Subset(int q) {
  for (const int s : kSf10Queries) {
    if (s == q) return true;
  }
  return false;
}

}  // namespace wimpi::tpch
