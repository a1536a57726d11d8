// TPC-H queries 1-11 as hand-written physical plans. Each function follows
// the official query text (parameters fixed to the spec's validation
// values); correlated subqueries are decorrelated into join/aggregate
// combinations, which is also how MonetDB executes them.
#include "common/date.h"
#include "common/strings.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/queries_impl.h"
#include "tpch/query_utils.h"

namespace wimpi::tpch {

using engine::Database;
using exec::CastF64;
using exec::ConstMinusF64;
using exec::ConstPlusF64;
using exec::DivF64;
using exec::HashAggregate;
using exec::I32EqMask;
using exec::MaskedF64;
using exec::MulF64;
using exec::SortRelation;
using exec::SubF64;
using exec::SumF64;

QuerySplit SplitQ1() {
  QuerySplit s;
  s.input = [](const Database& db, QueryStats* stats) {
    Relation r = ScanGather(
        db.table("lineitem"),
        {Predicate::CmpDate("l_shipdate", CmpOp::kLe,
                            ParseDate("1998-12-01") - 90)},
        {"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_tax"},
        stats);
    auto one_minus = ConstMinusF64(1.0, r.column("l_discount"), stats);
    auto disc_price = MulF64(r.column("l_extendedprice"), *one_minus, stats);
    auto one_plus = ConstPlusF64(1.0, r.column("l_tax"), stats);
    auto charge = MulF64(*disc_price, *one_plus, stats);
    r.AddColumn("disc_price", std::move(disc_price));
    r.AddColumn("charge", std::move(charge));
    return r;
  };
  s.group_by = {"l_returnflag", "l_linestatus"};
  s.aggs = {{AggFn::kSum, "l_quantity", "sum_qty"},
            {AggFn::kSum, "l_extendedprice", "sum_base_price"},
            {AggFn::kSum, "disc_price", "sum_disc_price"},
            {AggFn::kSum, "charge", "sum_charge"},
            {AggFn::kAvg, "l_quantity", "avg_qty"},
            {AggFn::kAvg, "l_extendedprice", "avg_price"},
            {AggFn::kAvg, "l_discount", "avg_disc"},
            {AggFn::kCountStar, "", "count_order"}};
  s.order_by = {{"l_returnflag", true}, {"l_linestatus", true}};
  return s;
}

exec::Relation RunQ2(const Database& db, QueryStats* stats) {
  const std::vector<int32_t> europe = NationKeysInRegion(db, "EUROPE");

  Relation supp = ScanGather(
      db.table("supplier"), {Predicate::InI32("s_nationkey", europe)},
      {"s_suppkey", "s_acctbal", "s_name", "s_address", "s_phone",
       "s_comment", "s_nationkey"},
      stats);
  Relation parts = ScanGather(
      db.table("part"),
      {Predicate::CmpI32("p_size", CmpOp::kEq, 15),
       Predicate::Like("p_type", "%BRASS")},
      {"p_partkey", "p_mfgr"}, stats);
  Relation ps = ScanAll(db.table("partsupp"),
                        {"ps_partkey", "ps_suppkey", "ps_supplycost"}, stats);

  // partsupp rows for qualifying parts...
  Relation j1 = JoinGather(parts, {"p_partkey"}, {"p_partkey", "p_mfgr"}, ps,
                           {"ps_partkey"}, {"ps_suppkey", "ps_supplycost"},
                           JoinKind::kInner, stats);
  // ...restricted to European suppliers, keeping supplier attributes.
  Relation j2 = JoinGather(
      supp, {"s_suppkey"},
      {"s_acctbal", "s_name", "s_address", "s_phone", "s_comment",
       "s_nationkey"},
      j1, {"ps_suppkey"}, {"p_partkey", "p_mfgr", "ps_supplycost"},
      JoinKind::kInner, stats);

  // Decorrelated subquery: min supplycost per part (over Europe).
  Relation mins = HashAggregate(ColumnSource(j2), {"p_partkey"},
                                {{AggFn::kMin, "ps_supplycost", "min_cost"}},
                                stats);
  Relation best =
      JoinGather(mins, {"p_partkey", "min_cost"}, {}, j2,
                 {"p_partkey", "ps_supplycost"},
                 {"s_acctbal", "s_name", "s_nationkey", "p_partkey", "p_mfgr",
                  "s_address", "s_phone", "s_comment"},
                 JoinKind::kSemi, stats);

  Relation nations =
      ScanAll(db.table("nation"), {"n_nationkey", "n_name"}, stats);
  Relation named = JoinGather(nations, {"n_nationkey"}, {"n_name"}, best,
                              {"s_nationkey"},
                              {"s_acctbal", "s_name", "p_partkey", "p_mfgr",
                               "s_address", "s_phone", "s_comment"},
                              JoinKind::kInner, stats);
  return SortRelation(named,
                      {{"s_acctbal", false},
                       {"n_name", true},
                       {"s_name", true},
                       {"p_partkey", true}},
                      stats, 100);
}

QuerySplit SplitQ3() {
  QuerySplit s;
  s.input = [](const Database& db, QueryStats* stats) {
    const int32_t cutoff = ParseDate("1995-03-15");
    Relation cust = ScanGather(db.table("customer"),
                               {Predicate::StrEq("c_mktsegment", "BUILDING")},
                               {"c_custkey"}, stats);
    Relation orders = ScanGather(
        db.table("orders"),
        {Predicate::CmpDate("o_orderdate", CmpOp::kLt, cutoff)},
        {"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"}, stats);
    Relation o2 = JoinGather(cust, {"c_custkey"}, {}, orders, {"o_custkey"},
                             {"o_orderkey", "o_orderdate", "o_shippriority"},
                             JoinKind::kSemi, stats);

    Relation line = ScanGather(
        db.table("lineitem"),
        {Predicate::CmpDate("l_shipdate", CmpOp::kGt, cutoff)},
        {"l_orderkey", "l_extendedprice", "l_discount"}, stats);
    Relation j = JoinGather(o2, {"o_orderkey"},
                            {"o_orderdate", "o_shippriority"}, line,
                            {"l_orderkey"},
                            {"l_orderkey", "l_extendedprice", "l_discount"},
                            JoinKind::kInner, stats);
    AddRevenue(&j, "rev", stats);
    return j;
  };
  s.group_by = {"l_orderkey", "o_orderdate", "o_shippriority"};
  s.aggs = {{AggFn::kSum, "rev", "revenue"}};
  s.order_by = {{"revenue", false}, {"o_orderdate", true}};
  s.limit = 10;
  return s;
}

QuerySplit SplitQ4() {
  QuerySplit s;
  s.input = [](const Database& db, QueryStats* stats) {
    const storage::Table& l = db.table("lineitem");
    const SelVec late = exec::FilterColCmpCol(
        ColumnSource(l), "l_commitdate", CmpOp::kLt, "l_receiptdate", stats);
    Relation lkeys = exec::GatherColumns(ColumnSource(l),
                                         Cols({"l_orderkey"}), late, stats);

    const int32_t lo = ParseDate("1993-07-01");
    Relation orders = ScanGather(
        db.table("orders"),
        {Predicate::BetweenDate("o_orderdate", lo,
                                DateAddMonths(lo, 3) - 1)},
        {"o_orderkey", "o_orderpriority"}, stats);

    return JoinGather(lkeys, {"l_orderkey"}, {}, orders, {"o_orderkey"},
                      {"o_orderpriority"}, JoinKind::kSemi, stats);
  };
  s.group_by = {"o_orderpriority"};
  s.aggs = {{AggFn::kCountStar, "", "order_count"}};
  s.order_by = {{"o_orderpriority", true}};
  return s;
}

QuerySplit SplitQ5() {
  QuerySplit s;
  s.input = [](const Database& db, QueryStats* stats) {
    const std::vector<int32_t> asia = NationKeysInRegion(db, "ASIA");
    const int32_t lo = ParseDate("1994-01-01");

    Relation cust =
        ScanAll(db.table("customer"), {"c_custkey", "c_nationkey"}, stats);
    Relation orders = ScanGather(
        db.table("orders"),
        {Predicate::BetweenDate("o_orderdate", lo,
                                DateAddMonths(lo, 12) - 1)},
        {"o_orderkey", "o_custkey"}, stats);
    Relation j1 =
        JoinGather(cust, {"c_custkey"}, {"c_nationkey"}, orders,
                   {"o_custkey"}, {"o_orderkey"}, JoinKind::kInner, stats);

    Relation line =
        ScanAll(db.table("lineitem"),
                {"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"},
                stats);
    Relation j2 = JoinGather(j1, {"o_orderkey"}, {"c_nationkey"}, line,
                             {"l_orderkey"},
                             {"l_suppkey", "l_extendedprice", "l_discount"},
                             JoinKind::kInner, stats);

    Relation supp = ScanGather(db.table("supplier"),
                               {Predicate::InI32("s_nationkey", asia)},
                               {"s_suppkey", "s_nationkey"}, stats);
    // Two-key join enforces both l_suppkey = s_suppkey and the correlated
    // c_nationkey = s_nationkey condition.
    Relation j3 = JoinGather(supp, {"s_suppkey", "s_nationkey"},
                             {"s_nationkey"}, j2,
                             {"l_suppkey", "c_nationkey"},
                             {"l_extendedprice", "l_discount"},
                             JoinKind::kInner, stats);
    AddRevenue(&j3, "rev", stats);
    return j3;
  };
  s.group_by = {"s_nationkey"};
  s.aggs = {{AggFn::kSum, "rev", "revenue"}};
  s.finish = [](const Database& db, Relation agg, QueryStats* stats) {
    Relation nations =
        ScanAll(db.table("nation"), {"n_nationkey", "n_name"}, stats);
    return JoinGather(nations, {"n_nationkey"}, {"n_name"}, agg,
                      {"s_nationkey"}, {"revenue"}, JoinKind::kInner, stats);
  };
  s.order_by = {{"revenue", false}};
  return s;
}

QuerySplit SplitQ6() {
  QuerySplit s;
  s.input = [](const Database& db, QueryStats* stats) {
    const int32_t lo = ParseDate("1994-01-01");
    Relation r = ScanGather(
        db.table("lineitem"),
        {Predicate::BetweenDate("l_shipdate", lo, DateAddMonths(lo, 12) - 1),
         Predicate::BetweenF64("l_discount", 0.05, 0.07),
         Predicate::CmpF64("l_quantity", CmpOp::kLt, 24)},
        {"l_extendedprice", "l_discount"}, stats);
    Relation rev;
    rev.AddColumn("product", MulF64(r.column("l_extendedprice"),
                                    r.column("l_discount"), stats));
    return rev;
  };
  s.aggs = {{AggFn::kSum, "product", "revenue"}};
  return s;
}

exec::Relation RunQ7(const Database& db, QueryStats* stats) {
  const int32_t france = NationKey(db, "FRANCE");
  const int32_t germany = NationKey(db, "GERMANY");

  Relation supp = ScanGather(
      db.table("supplier"),
      {Predicate::InI32("s_nationkey", {france, germany})},
      {"s_suppkey", "s_nationkey"}, stats);
  Relation line = ScanGather(
      db.table("lineitem"),
      {Predicate::BetweenDate("l_shipdate", ParseDate("1995-01-01"),
                              ParseDate("1996-12-31"))},
      {"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
       "l_shipdate"},
      stats);
  Relation j1 = JoinGather(supp, {"s_suppkey"}, {"s_nationkey"}, line,
                           {"l_suppkey"},
                           {"l_orderkey", "l_extendedprice", "l_discount",
                            "l_shipdate"},
                           JoinKind::kInner, stats);

  Relation orders =
      ScanAll(db.table("orders"), {"o_orderkey", "o_custkey"}, stats);
  Relation j2 = JoinGather(
      j1, {"l_orderkey"},
      {"s_nationkey", "l_extendedprice", "l_discount", "l_shipdate"}, orders,
      {"o_orderkey"}, {"o_custkey"}, JoinKind::kInner, stats);

  Relation cust = ScanGather(
      db.table("customer"),
      {Predicate::InI32("c_nationkey", {france, germany})},
      {"c_custkey", "c_nationkey"}, stats);
  Relation j3 = JoinGather(
      cust, {"c_custkey"}, {"c_nationkey"}, j2, {"o_custkey"},
      {"s_nationkey", "l_extendedprice", "l_discount", "l_shipdate"},
      JoinKind::kInner, stats);

  // (supp=FRANCE and cust=GERMANY) or (supp=GERMANY and cust=FRANCE)
  const ColumnSource src(j3);
  const SelVec fr_de =
      exec::Filter(src,
                   {Predicate::CmpI32("s_nationkey", CmpOp::kEq, france),
                    Predicate::CmpI32("c_nationkey", CmpOp::kEq, germany)},
                   stats);
  const SelVec de_fr =
      exec::Filter(src,
                   {Predicate::CmpI32("s_nationkey", CmpOp::kEq, germany),
                    Predicate::CmpI32("c_nationkey", CmpOp::kEq, france)},
                   stats);
  const SelVec both = exec::UnionSel({&fr_de, &de_fr}, stats);
  Relation sel = exec::GatherColumns(
      src,
      Cols({"s_nationkey", "c_nationkey", "l_shipdate", "l_extendedprice",
            "l_discount"}),
      both, stats);
  sel.AddColumn("l_year", exec::ExtractYear(sel.column("l_shipdate"), stats));
  AddRevenue(&sel, "volume", stats);

  Relation agg = HashAggregate(
      ColumnSource(sel), {"s_nationkey", "c_nationkey", "l_year"},
      {{AggFn::kSum, "volume", "revenue"}}, stats);

  // Attach nation names for both sides of the pair.
  Relation nations =
      ScanAll(db.table("nation"), {"n_nationkey", "n_name"}, stats);
  Relation a = JoinGather(nations, {"n_nationkey"}, {"n_name"}, agg,
                          {"s_nationkey"},
                          {"c_nationkey", "l_year", "revenue"},
                          JoinKind::kInner, stats);
  a.SetName(0, "supp_nation");
  Relation b = JoinGather(nations, {"n_nationkey"}, {"n_name"}, a,
                          {"c_nationkey"},
                          {"supp_nation", "l_year", "revenue"},
                          JoinKind::kInner, stats);
  b.SetName(0, "cust_nation");
  return SortRelation(
      b, {{"supp_nation", true}, {"cust_nation", true}, {"l_year", true}},
      stats);
}

exec::Relation RunQ8(const Database& db, QueryStats* stats) {
  const std::vector<int32_t> america = NationKeysInRegion(db, "AMERICA");
  const int32_t brazil = NationKey(db, "BRAZIL");

  Relation parts = ScanGather(
      db.table("part"),
      {Predicate::StrEq("p_type", "ECONOMY ANODIZED STEEL")}, {"p_partkey"},
      stats);
  Relation line =
      ScanAll(db.table("lineitem"),
              {"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
               "l_discount"},
              stats);
  Relation j1 = JoinGather(parts, {"p_partkey"}, {}, line, {"l_partkey"},
                           {"l_orderkey", "l_suppkey", "l_extendedprice",
                            "l_discount"},
                           JoinKind::kSemi, stats);

  Relation orders = ScanGather(
      db.table("orders"),
      {Predicate::BetweenDate("o_orderdate", ParseDate("1995-01-01"),
                              ParseDate("1996-12-31"))},
      {"o_orderkey", "o_custkey", "o_orderdate"}, stats);
  Relation j2 = JoinGather(
      j1, {"l_orderkey"},
      {"l_suppkey", "l_extendedprice", "l_discount"}, orders, {"o_orderkey"},
      {"o_custkey", "o_orderdate"}, JoinKind::kInner, stats);

  Relation cust = ScanGather(db.table("customer"),
                             {Predicate::InI32("c_nationkey", america)},
                             {"c_custkey"}, stats);
  Relation j3 = JoinGather(
      cust, {"c_custkey"}, {}, j2, {"o_custkey"},
      {"l_suppkey", "l_extendedprice", "l_discount", "o_orderdate"},
      JoinKind::kSemi, stats);

  Relation supp =
      ScanAll(db.table("supplier"), {"s_suppkey", "s_nationkey"}, stats);
  Relation j4 = JoinGather(
      supp, {"s_suppkey"}, {"s_nationkey"}, j3, {"l_suppkey"},
      {"l_extendedprice", "l_discount", "o_orderdate"}, JoinKind::kInner,
      stats);

  j4.AddColumn("o_year", exec::ExtractYear(j4.column("o_orderdate"), stats));
  AddRevenue(&j4, "volume", stats);
  const auto mask = I32EqMask(j4.column("s_nationkey"), brazil, stats);
  j4.AddColumn("brazil_volume", MaskedF64(j4.column("volume"), mask, stats));

  Relation agg =
      HashAggregate(ColumnSource(j4), {"o_year"},
                    {{AggFn::kSum, "brazil_volume", "brazil"},
                     {AggFn::kSum, "volume", "total"}},
                    stats);
  Relation out;
  Relation sorted = SortRelation(agg, {{"o_year", true}}, stats);
  out.AddColumn("o_year", sorted.TakeColumn(0));
  out.AddColumn("mkt_share",
                DivF64(sorted.column("brazil"), sorted.column("total"),
                       stats));
  return out;
}

exec::Relation RunQ9(const Database& db, QueryStats* stats) {
  Relation parts = ScanGather(
      db.table("part"),
      {Predicate::StrTest(
          "p_name",
          [](std::string_view s) { return Contains(s, "green"); }, 8.0)},
      {"p_partkey"}, stats);
  Relation line =
      ScanAll(db.table("lineitem"),
              {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
               "l_extendedprice", "l_discount"},
              stats);
  Relation j1 = JoinGather(parts, {"p_partkey"}, {}, line, {"l_partkey"},
                           {"l_orderkey", "l_partkey", "l_suppkey",
                            "l_quantity", "l_extendedprice", "l_discount"},
                           JoinKind::kSemi, stats);

  Relation ps = ScanAll(db.table("partsupp"),
                        {"ps_partkey", "ps_suppkey", "ps_supplycost"}, stats);
  Relation j2 = JoinGather(
      ps, {"ps_partkey", "ps_suppkey"}, {"ps_supplycost"}, j1,
      {"l_partkey", "l_suppkey"},
      {"l_orderkey", "l_suppkey", "l_quantity", "l_extendedprice",
       "l_discount"},
      JoinKind::kInner, stats);

  Relation supp =
      ScanAll(db.table("supplier"), {"s_suppkey", "s_nationkey"}, stats);
  Relation j3 = JoinGather(
      supp, {"s_suppkey"}, {"s_nationkey"}, j2, {"l_suppkey"},
      {"l_orderkey", "l_quantity", "l_extendedprice", "l_discount",
       "ps_supplycost"},
      JoinKind::kInner, stats);

  Relation orders =
      ScanAll(db.table("orders"), {"o_orderkey", "o_orderdate"}, stats);
  Relation j4 = JoinGather(
      j3, {"l_orderkey"},
      {"s_nationkey", "l_quantity", "l_extendedprice", "l_discount",
       "ps_supplycost"},
      orders, {"o_orderkey"}, {"o_orderdate"}, JoinKind::kInner, stats);

  j4.AddColumn("o_year", exec::ExtractYear(j4.column("o_orderdate"), stats));
  AddRevenue(&j4, "gross", stats);
  auto cost = MulF64(j4.column("ps_supplycost"), j4.column("l_quantity"),
                     stats);
  j4.AddColumn("amount", SubF64(j4.column("gross"), *cost, stats));

  Relation agg = HashAggregate(ColumnSource(j4), {"s_nationkey", "o_year"},
                               {{AggFn::kSum, "amount", "sum_profit"}},
                               stats);
  Relation nations =
      ScanAll(db.table("nation"), {"n_nationkey", "n_name"}, stats);
  Relation named =
      JoinGather(nations, {"n_nationkey"}, {"n_name"}, agg, {"s_nationkey"},
                 {"o_year", "sum_profit"}, JoinKind::kInner, stats);
  named.SetName(0, "nation");
  return SortRelation(named, {{"nation", true}, {"o_year", false}}, stats);
}

exec::Relation RunQ10(const Database& db, QueryStats* stats) {
  const int32_t lo = ParseDate("1993-10-01");
  Relation orders = ScanGather(
      db.table("orders"),
      {Predicate::BetweenDate("o_orderdate", lo, DateAddMonths(lo, 3) - 1)},
      {"o_orderkey", "o_custkey"}, stats);
  Relation line = ScanGather(db.table("lineitem"),
                             {Predicate::StrEq("l_returnflag", "R")},
                             {"l_orderkey", "l_extendedprice", "l_discount"},
                             stats);
  Relation j = JoinGather(orders, {"o_orderkey"}, {"o_custkey"}, line,
                          {"l_orderkey"}, {"l_extendedprice", "l_discount"},
                          JoinKind::kInner, stats);
  AddRevenue(&j, "rev", stats);
  Relation agg = HashAggregate(ColumnSource(j), {"o_custkey"},
                               {{AggFn::kSum, "rev", "revenue"}}, stats);

  Relation cust = ScanAll(db.table("customer"),
                          {"c_custkey", "c_name", "c_acctbal", "c_phone",
                           "c_nationkey", "c_address", "c_comment"},
                          stats);
  Relation j2 = JoinGather(cust, {"c_custkey"},
                           {"c_custkey", "c_name", "c_acctbal", "c_phone",
                            "c_nationkey", "c_address", "c_comment"},
                           agg, {"o_custkey"}, {"revenue"}, JoinKind::kInner,
                           stats);
  Relation nations =
      ScanAll(db.table("nation"), {"n_nationkey", "n_name"}, stats);
  Relation named = JoinGather(nations, {"n_nationkey"}, {"n_name"}, j2,
                              {"c_nationkey"},
                              {"c_custkey", "c_name", "revenue", "c_acctbal",
                               "c_phone", "c_address", "c_comment"},
                              JoinKind::kInner, stats);
  return SortRelation(named, {{"revenue", false}, {"c_custkey", true}},
                      stats, 20);
}

exec::Relation RunQ11(const Database& db, QueryStats* stats) {
  const int32_t germany = NationKey(db, "GERMANY");
  // The HAVING threshold fraction is 0.0001 / SF per the spec; recover SF
  // from the supplier cardinality.
  const double sf =
      static_cast<double>(db.table("supplier").num_rows()) / 10000.0;
  const double fraction = 0.0001 / std::max(sf, 1e-9);

  Relation supp = ScanGather(db.table("supplier"),
                             {Predicate::CmpI32("s_nationkey", CmpOp::kEq,
                                                germany)},
                             {"s_suppkey"}, stats);
  Relation ps =
      ScanAll(db.table("partsupp"),
              {"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"},
              stats);
  Relation j = JoinGather(supp, {"s_suppkey"}, {}, ps, {"ps_suppkey"},
                          {"ps_partkey", "ps_availqty", "ps_supplycost"},
                          JoinKind::kSemi, stats);
  auto qty = CastF64(j.column("ps_availqty"), stats);
  j.AddColumn("value", MulF64(j.column("ps_supplycost"), *qty, stats));

  const double total = SumF64(j.column("value"), stats);
  Relation agg = HashAggregate(ColumnSource(j), {"ps_partkey"},
                               {{AggFn::kSum, "value", "value"}}, stats);
  const SelVec keep =
      exec::Filter(ColumnSource(agg),
                   {Predicate::CmpF64("value", CmpOp::kGt, total * fraction)},
                   stats);
  Relation out = exec::GatherColumns(ColumnSource(agg),
                                     Cols({"ps_partkey", "value"}), keep,
                                     stats);
  return SortRelation(out, {{"value", false}}, stats);
}

}  // namespace wimpi::tpch
