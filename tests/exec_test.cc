// Operator-level tests: every vectorized operator is validated against a
// naive oracle over randomized data (property style, parameterized by
// seed).
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "common/date.h"
#include "common/rng.h"
#include "exec/aggregate.h"
#include "exec/exec_options.h"
#include "exec/expr.h"
#include "exec/filter.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "gtest/gtest.h"
#include "storage/table.h"

namespace wimpi::exec {
namespace {

using storage::Column;
using storage::DataType;
using storage::Schema;
using storage::Table;

Table RandomTable(int64_t rows, uint64_t seed) {
  Schema schema({{"i32", DataType::kInt32},
                 {"i64", DataType::kInt64},
                 {"f64", DataType::kFloat64},
                 {"date", DataType::kDate},
                 {"str", DataType::kString}});
  Table t("rand", schema);
  Rng rng(seed);
  const char* words[] = {"AIR", "MAIL", "SHIP", "RAIL", "TRUCK", "FOB"};
  for (int64_t i = 0; i < rows; ++i) {
    t.column(0).AppendInt32(static_cast<int32_t>(rng.Uniform(-50, 50)));
    t.column(1).AppendInt64(rng.Uniform(0, 1000));
    t.column(2).AppendFloat64(rng.NextDouble() * 100 - 50);
    t.column(3).AppendInt32(static_cast<int32_t>(rng.Uniform(8000, 9000)));
    t.column(4).AppendString(words[rng.Uniform(0, 5)]);
  }
  t.FinishLoad();
  return t;
}

class ExecPropertyTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ExecPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST_P(ExecPropertyTest, FilterMatchesOracle) {
  const Table t = RandomTable(4000, GetParam());
  const ColumnSource src(t);
  QueryStats stats;
  const SelVec sel = Filter(
      src,
      {Predicate::CmpI32("i32", CmpOp::kGe, 0),
       Predicate::BetweenF64("f64", -10, 30),
       Predicate::StrIn("str", {"AIR", "MAIL"})},
      &stats);

  SelVec expected;
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    const bool ok = t.column(0).I32Data()[i] >= 0 &&
                    t.column(2).F64Data()[i] >= -10 &&
                    t.column(2).F64Data()[i] <= 30 &&
                    (t.column(4).StringAt(i) == "AIR" ||
                     t.column(4).StringAt(i) == "MAIL");
    if (ok) expected.push_back(static_cast<int32_t>(i));
  }
  EXPECT_EQ(sel, expected);
  EXPECT_GE(stats.ops.size(), 3u);
}

TEST_P(ExecPropertyTest, EveryPredicateKindMatchesOracle) {
  const Table t = RandomTable(2000, GetParam() + 100);
  const ColumnSource src(t);
  struct Case {
    Predicate pred;
    std::function<bool(int64_t)> oracle;
  };
  std::vector<Case> cases;
  cases.push_back({Predicate::CmpI32("i32", CmpOp::kLt, 5),
                   [&](int64_t i) { return t.column(0).I32Data()[i] < 5; }});
  cases.push_back({Predicate::CmpI64("i64", CmpOp::kNe, 10),
                   [&](int64_t i) { return t.column(1).I64Data()[i] != 10; }});
  cases.push_back({Predicate::CmpF64("f64", CmpOp::kGt, 0.0),
                   [&](int64_t i) { return t.column(2).F64Data()[i] > 0; }});
  cases.push_back(
      {Predicate::BetweenI32("date", 8100, 8200), [&](int64_t i) {
         const int32_t v = t.column(3).I32Data()[i];
         return v >= 8100 && v <= 8200;
       }});
  cases.push_back({Predicate::InI32("i32", {1, 3, 5, 7}), [&](int64_t i) {
                     const int32_t v = t.column(0).I32Data()[i];
                     return v == 1 || v == 3 || v == 5 || v == 7;
                   }});
  cases.push_back({Predicate::StrEq("str", "SHIP"), [&](int64_t i) {
                     return t.column(4).StringAt(i) == "SHIP";
                   }});
  cases.push_back({Predicate::StrNe("str", "SHIP"), [&](int64_t i) {
                     return t.column(4).StringAt(i) != "SHIP";
                   }});
  cases.push_back({Predicate::Like("str", "%AI%"), [&](int64_t i) {
                     return t.column(4).StringAt(i).find("AI") !=
                            std::string_view::npos;
                   }});
  cases.push_back({Predicate::NotLike("str", "R%"), [&](int64_t i) {
                     return t.column(4).StringAt(i).substr(0, 1) != "R";
                   }});

  for (auto& c : cases) {
    const SelVec sel = Filter(src, {std::move(c.pred)}, nullptr);
    SelVec expected;
    for (int64_t i = 0; i < t.num_rows(); ++i) {
      if (c.oracle(i)) expected.push_back(static_cast<int32_t>(i));
    }
    EXPECT_EQ(sel, expected);
  }
}

TEST_P(ExecPropertyTest, FilterColCmpColMatchesOracle) {
  const Table t = RandomTable(2000, GetParam() + 200);
  const ColumnSource src(t);
  const SelVec sel =
      FilterColCmpCol(src, "i32", CmpOp::kLt, "date", nullptr);
  SelVec expected;
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    if (t.column(0).I32Data()[i] < t.column(3).I32Data()[i]) {
      expected.push_back(static_cast<int32_t>(i));
    }
  }
  EXPECT_EQ(sel, expected);

  // Refinement keeps only rows present in the base selection.
  SelVec base;
  for (int32_t i = 0; i < 2000; i += 3) base.push_back(i);
  const SelVec refined =
      FilterColCmpCol(src, "i32", CmpOp::kLt, "date", nullptr, &base);
  for (const int32_t r : refined) EXPECT_EQ(r % 3, 0);
}

TEST(ExecTest, UnionSelDeduplicatesAndSorts) {
  SelVec a = {1, 5, 9};
  SelVec b = {2, 5, 8};
  SelVec c = {9};
  const SelVec u = UnionSel({&a, &b, &c}, nullptr);
  EXPECT_EQ(u, (SelVec{1, 2, 5, 8, 9}));
}

TEST(ExecTest, GatherWithDefaultFillsMissing) {
  Column src(DataType::kFloat64);
  src.AppendFloat64(10);
  src.AppendFloat64(20);
  const std::vector<int32_t> idx = {1, -1, 0};
  QueryStats stats;
  auto out = GatherWithDefault(src, idx, -1.0, &stats);
  EXPECT_DOUBLE_EQ(out->F64Data()[0], 20);
  EXPECT_DOUBLE_EQ(out->F64Data()[1], -1);
  EXPECT_DOUBLE_EQ(out->F64Data()[2], 10);
}

TEST_P(ExecPropertyTest, HashJoinMatchesNestedLoop) {
  const Table build = RandomTable(300, GetParam() + 300);
  const Table probe = RandomTable(500, GetParam() + 301);
  std::vector<const Column*> bk = {&build.column("i64")};
  std::vector<const Column*> pk = {&probe.column("i64")};

  const JoinResult inner = HashJoin(bk, pk, JoinKind::kInner, nullptr);
  std::multiset<std::pair<int32_t, int32_t>> got, want;
  for (size_t i = 0; i < inner.build_idx.size(); ++i) {
    got.insert({inner.build_idx[i], inner.probe_idx[i]});
  }
  for (int32_t p = 0; p < probe.num_rows(); ++p) {
    for (int32_t b = 0; b < build.num_rows(); ++b) {
      if (build.column(1).I64Data()[b] == probe.column(1).I64Data()[p]) {
        want.insert({b, p});
      }
    }
  }
  EXPECT_EQ(got, want);

  // Semi and anti partition the probe rows.
  const JoinResult semi = HashJoin(bk, pk, JoinKind::kSemi, nullptr);
  const JoinResult anti = HashJoin(bk, pk, JoinKind::kAnti, nullptr);
  EXPECT_EQ(semi.probe_idx.size() + anti.probe_idx.size(),
            static_cast<size_t>(probe.num_rows()));
  for (const int32_t p : semi.probe_idx) {
    bool any = false;
    for (int32_t b = 0; b < build.num_rows(); ++b) {
      any |= build.column(1).I64Data()[b] == probe.column(1).I64Data()[p];
    }
    EXPECT_TRUE(any);
  }

  // Left outer covers every probe row exactly max(1, #matches) times.
  const JoinResult outer = HashJoin(bk, pk, JoinKind::kLeftOuter, nullptr);
  std::map<int32_t, int> probe_count;
  for (const int32_t p : outer.probe_idx) ++probe_count[p];
  for (int32_t p = 0; p < probe.num_rows(); ++p) {
    int matches = 0;
    for (int32_t b = 0; b < build.num_rows(); ++b) {
      matches += build.column(1).I64Data()[b] == probe.column(1).I64Data()[p];
    }
    EXPECT_EQ(probe_count[p], std::max(1, matches));
  }
}

TEST_P(ExecPropertyTest, MultiKeyJoinComparesAllKeys) {
  const Table build = RandomTable(400, GetParam() + 400);
  const Table probe = RandomTable(400, GetParam() + 401);
  const JoinResult jr =
      HashJoin({&build.column("i32"), &build.column("str")},
               {&probe.column("i32"), &probe.column("str")},
               JoinKind::kInner, nullptr);
  size_t want = 0;
  for (int32_t p = 0; p < probe.num_rows(); ++p) {
    for (int32_t b = 0; b < build.num_rows(); ++b) {
      want += build.column(0).I32Data()[b] == probe.column(0).I32Data()[p] &&
              build.column(4).I32Data()[b] == probe.column(4).I32Data()[p];
    }
  }
  EXPECT_EQ(jr.probe_idx.size(), want);
  for (size_t i = 0; i < jr.probe_idx.size(); ++i) {
    EXPECT_EQ(build.column(0).I32Data()[jr.build_idx[i]],
              probe.column(0).I32Data()[jr.probe_idx[i]]);
  }
}

TEST_P(ExecPropertyTest, HashAggregateMatchesMapOracle) {
  const Table t = RandomTable(3000, GetParam() + 500);
  Relation agg = HashAggregate(ColumnSource(t), {"i32"},
                               {{AggFn::kSum, "f64", "sum"},
                                {AggFn::kMin, "f64", "min"},
                                {AggFn::kMax, "f64", "max"},
                                {AggFn::kCountStar, "", "count"},
                                {AggFn::kAvg, "f64", "avg"},
                                {AggFn::kSumI64, "i64", "isum"}},
                               nullptr);

  struct Acc {
    double sum = 0, mn = 1e18, mx = -1e18;
    int64_t n = 0, isum = 0;
  };
  std::map<int32_t, Acc> oracle;
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    Acc& a = oracle[t.column(0).I32Data()[i]];
    const double v = t.column(2).F64Data()[i];
    a.sum += v;
    a.mn = std::min(a.mn, v);
    a.mx = std::max(a.mx, v);
    ++a.n;
    a.isum += t.column(1).I64Data()[i];
  }
  ASSERT_EQ(agg.num_rows(), static_cast<int64_t>(oracle.size()));
  for (int64_t g = 0; g < agg.num_rows(); ++g) {
    const Acc& a = oracle.at(agg.column("i32").I32Data()[g]);
    EXPECT_NEAR(agg.column("sum").F64Data()[g], a.sum, 1e-9);
    EXPECT_DOUBLE_EQ(agg.column("min").F64Data()[g], a.mn);
    EXPECT_DOUBLE_EQ(agg.column("max").F64Data()[g], a.mx);
    EXPECT_EQ(agg.column("count").I64Data()[g], a.n);
    EXPECT_NEAR(agg.column("avg").F64Data()[g], a.sum / a.n, 1e-9);
    EXPECT_EQ(agg.column("isum").I64Data()[g], a.isum);
  }
}

TEST(ExecTest, GlobalAggregateOverEmptyInput) {
  const Table t = RandomTable(0, 1);
  Relation agg = HashAggregate(ColumnSource(t), {},
                               {{AggFn::kSum, "f64", "sum"},
                                {AggFn::kCountStar, "", "count"}},
                               nullptr);
  ASSERT_EQ(agg.num_rows(), 1);
  EXPECT_DOUBLE_EQ(agg.column("sum").F64Data()[0], 0);
  EXPECT_EQ(agg.column("count").I64Data()[0], 0);
}

// Min/max keep the input's own type: int64 values above 2^53 and the
// int64 extremes come out exact (a double accumulator would round them),
// sequentially and through the parallel chunk merge.
TEST(ExecTest, Int64MinMaxStayExact) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr int64_t kLo = std::numeric_limits<int64_t>::min();
  constexpr int64_t kHi = std::numeric_limits<int64_t>::max();
  Relation rel;
  auto k = std::make_unique<Column>(DataType::kInt32);
  auto v = std::make_unique<Column>(DataType::kInt64);
  const std::pair<int32_t, int64_t> rows[] = {
      {0, kTwo53 + 1}, {1, kLo},     {0, kTwo53 + 3}, {1, kHi},
      {2, kTwo53 + 1}, {0, kTwo53 + 1}, {1, 0},       {2, kTwo53 + 1}};
  for (const auto& [key, value] : rows) {
    k->AppendInt32(key);
    v->AppendInt64(value);
  }
  rel.AddColumn("k", std::move(k));
  rel.AddColumn("v", std::move(v));
  ExecOptions par;
  par.num_threads = 4;
  par.morsel_rows = 2;
  for (const ExecOptions& opts : {ExecOptions{}, par}) {
    ScopedExecOptions scope(opts);
    const Relation agg = HashAggregate(ColumnSource(rel), {"k"},
                                       {{AggFn::kMin, "v", "min"},
                                        {AggFn::kMax, "v", "max"}},
                                       nullptr);
    ASSERT_EQ(agg.num_rows(), 3);
    EXPECT_EQ(agg.column("min").type(), DataType::kInt64);
    EXPECT_EQ(agg.column("min").I64Data()[0], kTwo53 + 1);
    EXPECT_EQ(agg.column("max").I64Data()[0], kTwo53 + 3);
    EXPECT_EQ(agg.column("min").I64Data()[1], kLo);
    EXPECT_EQ(agg.column("max").I64Data()[1], kHi);
    EXPECT_EQ(agg.column("min").I64Data()[2], kTwo53 + 1);
    EXPECT_EQ(agg.column("max").I64Data()[2], kTwo53 + 1);

    const Relation all = HashAggregate(ColumnSource(rel), {},
                                       {{AggFn::kMin, "v", "min"},
                                        {AggFn::kMax, "v", "max"}},
                                       nullptr);
    EXPECT_EQ(all.column("min").I64Data()[0], kLo);
    EXPECT_EQ(all.column("max").I64Data()[0], kHi);
  }
}

// -0.0 == +0.0, so they are one group key and one join key (the hash
// canonicalizes zero); the group keeps its first row's value.
TEST(ExecTest, SignedZeroFloatKeysAreOneKey) {
  Relation rel;
  auto f = std::make_unique<Column>(DataType::kFloat64);
  auto i = std::make_unique<Column>(DataType::kInt32);
  for (const double d : {-0.0, 0.0, 1.0, -0.0, 0.0}) {
    f->AppendFloat64(d);
    i->AppendInt32(3);
  }
  rel.AddColumn("f", std::move(f));
  rel.AddColumn("i", std::move(i));
  for (const std::vector<std::string>& by :
       {std::vector<std::string>{"f"}, std::vector<std::string>{"i", "f"}}) {
    const Relation agg = HashAggregate(ColumnSource(rel), by,
                                       {{AggFn::kCountStar, "", "n"}},
                                       nullptr);
    ASSERT_EQ(agg.num_rows(), 2);
    EXPECT_TRUE(std::signbit(agg.column("f").F64Data()[0]));
    EXPECT_EQ(agg.column("f").F64Data()[1], 1.0);
    EXPECT_EQ(agg.column("n").I64Data()[0], 4);
    EXPECT_EQ(agg.column("n").I64Data()[1], 1);
  }

  Column build(DataType::kFloat64);
  build.AppendFloat64(-0.0);
  build.AppendFloat64(2.0);
  Column probe(DataType::kFloat64);
  probe.AppendFloat64(0.0);
  probe.AppendFloat64(-0.0);
  probe.AppendFloat64(2.0);
  const JoinResult jr =
      HashJoin({&build}, {&probe}, JoinKind::kInner, nullptr);
  EXPECT_EQ(jr.build_idx, (std::vector<int32_t>{0, 0, 1}));
  EXPECT_EQ(jr.probe_idx, (std::vector<int32_t>{0, 1, 2}));
}

TEST_P(ExecPropertyTest, SortPermOrdersAndIsStable) {
  const Table t = RandomTable(1000, GetParam() + 600);
  const ColumnSource src(t);
  const SelVec perm =
      SortPerm(src, {{"i32", true}, {"f64", false}}, nullptr);
  ASSERT_EQ(perm.size(), 1000u);
  for (size_t i = 1; i < perm.size(); ++i) {
    const int32_t a32 = t.column(0).I32Data()[perm[i - 1]];
    const int32_t b32 = t.column(0).I32Data()[perm[i]];
    ASSERT_LE(a32, b32);
    if (a32 == b32) {
      const double af = t.column(2).F64Data()[perm[i - 1]];
      const double bf = t.column(2).F64Data()[perm[i]];
      ASSERT_GE(af, bf);
      if (af == bf) {
        ASSERT_LT(perm[i - 1], perm[i]);  // stable tiebreak
      }
    }
  }

  // Top-N agrees with the prefix of the full sort.
  const SelVec top =
      SortPerm(src, {{"i32", true}, {"f64", false}}, nullptr, 10);
  ASSERT_EQ(top.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(top[i], perm[i]);
}

TEST(ExecTest, SortOnStringsIsLexicographic) {
  Schema schema({{"s", DataType::kString}});
  Table t("t", schema);
  // Insert out of lexicographic order so codes != order.
  for (const char* v : {"pear", "apple", "zebra", "mango"}) {
    t.column(0).AppendString(v);
  }
  t.FinishLoad();
  const SelVec perm = SortPerm(ColumnSource(t), {{"s", true}}, nullptr);
  EXPECT_EQ(t.column(0).StringAt(perm[0]), "apple");
  EXPECT_EQ(t.column(0).StringAt(perm[3]), "zebra");
}

TEST(ExecTest, ExpressionKernels) {
  Column a(DataType::kFloat64), b(DataType::kFloat64);
  for (int i = 1; i <= 4; ++i) {
    a.AppendFloat64(i);
    b.AppendFloat64(i * 10);
  }
  EXPECT_DOUBLE_EQ(MulF64(a, b, nullptr)->F64Data()[2], 90);
  EXPECT_DOUBLE_EQ(AddF64(a, b, nullptr)->F64Data()[0], 11);
  EXPECT_DOUBLE_EQ(SubF64(b, a, nullptr)->F64Data()[3], 36);
  EXPECT_DOUBLE_EQ(ConstMinusF64(1.0, a, nullptr)->F64Data()[1], -1);
  EXPECT_DOUBLE_EQ(ConstPlusF64(1.0, a, nullptr)->F64Data()[1], 3);
  EXPECT_DOUBLE_EQ(MulConstF64(a, 0.5, nullptr)->F64Data()[3], 2);
  EXPECT_DOUBLE_EQ(DivF64(b, a, nullptr)->F64Data()[1], 10);

  Column zero(DataType::kFloat64);
  zero.AppendFloat64(0);
  Column one(DataType::kFloat64);
  one.AppendFloat64(1);
  EXPECT_DOUBLE_EQ(DivF64(one, zero, nullptr)->F64Data()[0], 0);

  Column i32(DataType::kInt32);
  i32.AppendInt32(-3);
  EXPECT_DOUBLE_EQ(CastF64(i32, nullptr)->F64Data()[0], -3.0);

  Column dates(DataType::kDate);
  dates.AppendInt32(wimpi::ParseDate("1995-06-17"));
  EXPECT_EQ(ExtractYear(dates, nullptr)->I32Data()[0], 1995);

  const std::vector<uint8_t> mask = {1, 0, 1, 0};
  auto masked = MaskedF64(a, mask, nullptr);
  EXPECT_DOUBLE_EQ(masked->F64Data()[0], 1);
  EXPECT_DOUBLE_EQ(masked->F64Data()[1], 0);
}

TEST(ExecTest, CountersScaleLinearly) {
  QueryStats s;
  OpStats op;
  op.op = "x";
  op.compute_ops = 10;
  op.seq_bytes = 100;
  op.rand_count = 5;
  s.Add(op);
  s.TrackAlloc(64);
  s.TouchBaseColumn("t.c", 1000);
  s.Scale(10);
  EXPECT_DOUBLE_EQ(s.TotalComputeOps(), 100);
  EXPECT_DOUBLE_EQ(s.TotalSeqBytes(), 1000);
  EXPECT_DOUBLE_EQ(s.TotalRandCount(), 50);
  EXPECT_DOUBLE_EQ(s.peak_intermediate_bytes, 640);
  EXPECT_DOUBLE_EQ(s.BaseTouchedBytes(), 10000);
}

}  // namespace
}  // namespace wimpi::exec
