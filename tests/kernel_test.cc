// Scan, gather, LIKE and probe kernels against naive reference loops:
// every predicate kind and comparison operator over full scans and
// candidate lists, sequentially and on four threads with small morsels,
// with the boundary values that branch-free kernels get wrong first
// (INT32_MIN/INT32_MAX, empty ranges, NaN, empty inputs). The parallel run
// must also reproduce the sequential run's OpStats exactly. Hash
// aggregation runs every key reader and AggFn against the row-at-a-time
// reference (tests/reference_aggregate.cc), bit for bit, on unclustered
// input (the hash path) and on input clustered on the leading key (the run
// path), and the partitioned parallel join build must give the one-thread
// build's result; a join probe that skips a chain through its bucket's
// filter must count the chain as walked. A whole-table scan must borrow
// the table's columns and count exactly what the copy it replaces counts.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "exec/aggregate.h"
#include "exec/counters.h"
#include "exec/estimator.h"
#include "exec/exec_options.h"
#include "exec/filter.h"
#include "exec/hash_keys.h"
#include "exec/join.h"
#include "gtest/gtest.h"
#include "reference.h"
#include "storage/table.h"

namespace wimpi::exec {
namespace {

using storage::Column;
using storage::DataType;

constexpr int32_t kMin32 = std::numeric_limits<int32_t>::min();
constexpr int32_t kMax32 = std::numeric_limits<int32_t>::max();
const double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                          CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

// Reference comparison: a plain switch on the operator.
template <typename T>
bool RefCmp(T a, CmpOp op, T b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

// Columns i32/i32b (with INT32_MIN/INT32_MAX sprinkled in), date, i64,
// i64b, f64/f64b (with NaN) and str (~1000 distinct short words, enough
// for the dictionary pass to run in several morsels).
storage::Table KernelTable(int64_t rows, uint64_t seed) {
  storage::Schema schema({{"i32", DataType::kInt32},
                          {"i32b", DataType::kInt32},
                          {"date", DataType::kDate},
                          {"i64", DataType::kInt64},
                          {"i64b", DataType::kInt64},
                          {"f64", DataType::kFloat64},
                          {"f64b", DataType::kFloat64},
                          {"str", DataType::kString}});
  storage::Table t("kernel", schema);
  Rng rng(seed);
  auto i32 = [&] {
    switch (rng.Uniform(0, 9)) {
      case 0:
        return kMin32;
      case 1:
        return kMax32;
      default:
        return static_cast<int32_t>(rng.Uniform(-20, 20));
    }
  };
  auto f64 = [&] {
    return rng.Uniform(0, 9) == 0 ? kNaN
                                  : static_cast<double>(rng.Uniform(-8, 8));
  };
  for (int64_t i = 0; i < rows; ++i) {
    t.column(0).AppendInt32(i32());
    t.column(1).AppendInt32(i32());
    t.column(2).AppendInt32(static_cast<int32_t>(rng.Uniform(-20, 20)));
    t.column(3).AppendInt64(rng.Uniform(-20, 20));
    t.column(4).AppendInt64(rng.Uniform(-20, 20));
    t.column(5).AppendFloat64(f64());
    t.column(6).AppendFloat64(f64());
    std::string word(static_cast<size_t>(rng.Uniform(0, 6)), 'a');
    for (char& c : word) c = static_cast<char>('a' + rng.Uniform(0, 2));
    t.column(7).AppendString(word);
  }
  t.FinishLoad();
  return t;
}

// One configuration of the matrix: sequential (default options), or four
// threads over 256-row morsels.
struct Mode {
  const char* name;
  ExecOptions opts;
};

std::vector<Mode> Modes() {
  ExecOptions par;
  par.num_threads = 4;
  par.morsel_rows = 256;
  return {{"sequential", ExecOptions{}}, {"4 threads", par}};
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b) {
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].op, b.ops[i].op);
    EXPECT_EQ(a.ops[i].compute_ops, b.ops[i].compute_ops);
    EXPECT_EQ(a.ops[i].seq_bytes, b.ops[i].seq_bytes);
    EXPECT_EQ(a.ops[i].rand_count, b.ops[i].rand_count);
    EXPECT_EQ(a.ops[i].rand_struct_bytes, b.ops[i].rand_struct_bytes);
    EXPECT_EQ(a.ops[i].output_bytes, b.ops[i].output_bytes);
    EXPECT_EQ(a.ops[i].parallel_fraction, b.ops[i].parallel_fraction);
    EXPECT_EQ(a.ops[i].rows_in, b.ops[i].rows_in);
    EXPECT_EQ(a.ops[i].rows_out, b.ops[i].rows_out);
    EXPECT_EQ(a.ops[i].est_rows, b.ops[i].est_rows);
  }
}

// Candidate lists: none (full scan), empty, every third row, and all rows.
std::vector<std::pair<std::string, std::optional<SelVec>>> Candidates(
    int64_t rows) {
  SelVec sparse, all;
  for (int32_t r = 0; r < rows; ++r) {
    if (r % 3 == 1) sparse.push_back(r);
    all.push_back(r);
  }
  return {{"full scan", std::nullopt},
          {"empty candidates", SelVec{}},
          {"every third row", sparse},
          {"all rows as candidates", all}};
}

struct FilterCase {
  std::string name;
  Predicate pred;
  std::function<bool(int64_t)> oracle;
};

std::vector<FilterCase> FilterCases(const storage::Table& t) {
  const int32_t* i32 = t.column("i32").I32Data();
  const int32_t* date = t.column("date").I32Data();
  const int64_t* i64 = t.column("i64").I64Data();
  const double* f64 = t.column("f64").F64Data();
  const Column& str = t.column("str");
  std::vector<FilterCase> cases;
  for (const CmpOp op : kOps) {
    const std::string o = std::to_string(static_cast<int>(op));
    for (const int32_t v : {kMin32, -3, 0, 7, kMax32}) {
      cases.push_back({"i32 op" + o + " " + std::to_string(v),
                       Predicate::CmpI32("i32", op, v),
                       [=](int64_t r) { return RefCmp(i32[r], op, v); }});
    }
    cases.push_back({"date op" + o, Predicate::CmpDate("date", op, 5),
                     [=](int64_t r) { return RefCmp(date[r], op, 5); }});
    for (const int64_t v : {int64_t{-30}, int64_t{0}, int64_t{20}}) {
      cases.push_back({"i64 op" + o + " " + std::to_string(v),
                       Predicate::CmpI64("i64", op, v),
                       [=](int64_t r) { return RefCmp(i64[r], op, v); }});
    }
    for (const double v : {-2.0, 0.0, 8.0, kNaN}) {
      cases.push_back({"f64 op" + o + " " + std::to_string(v),
                       Predicate::CmpF64("f64", op, v),
                       [=](int64_t r) { return RefCmp(f64[r], op, v); }});
    }
  }
  const std::pair<int32_t, int32_t> ranges[] = {
      {kMin32, kMax32}, {-5, 5}, {5, -5}, {0, 0}, {kMin32, kMin32},
      {kMax32, kMax32}, {kMin32, 0}, {0, kMax32}, {kMax32, kMin32}};
  for (const auto& [lo, hi] : ranges) {
    cases.push_back(
        {"between i32 " + std::to_string(lo) + " " + std::to_string(hi),
         Predicate::BetweenI32("i32", lo, hi),
         [=, lo = lo, hi = hi](int64_t r) {
           return i32[r] >= lo && i32[r] <= hi;
         }});
  }
  const std::pair<double, double> franges[] = {
      {-3.0, 3.0}, {3.0, -3.0}, {0.0, 0.0}, {kNaN, 5.0}, {-5.0, kNaN}};
  for (const auto& [lo, hi] : franges) {
    cases.push_back(
        {"between f64 " + std::to_string(lo) + " " + std::to_string(hi),
         Predicate::BetweenF64("f64", lo, hi),
         [=, lo = lo, hi = hi](int64_t r) {
           return f64[r] >= lo && f64[r] <= hi;
         }});
  }
  const std::vector<int32_t> sets[] = {
      {}, {3}, {kMin32, kMax32}, {-20, -1, 0, 1, 20, kMax32}};
  for (const auto& set : sets) {
    cases.push_back({"in i32 of " + std::to_string(set.size()),
                     Predicate::InI32("i32", set), [=](int64_t r) {
                       for (const int32_t v : set) {
                         if (i32[r] == v) return true;
                       }
                       return false;
                     }});
  }
  auto s = [&str](int64_t r) { return str.StringAt(r); };
  cases.push_back({"str eq", Predicate::StrEq("str", "ab"),
                   [=](int64_t r) { return s(r) == "ab"; }});
  cases.push_back({"str eq absent", Predicate::StrEq("str", "zzz"),
                   [](int64_t) { return false; }});
  cases.push_back({"str ne", Predicate::StrNe("str", "ab"),
                   [=](int64_t r) { return s(r) != "ab"; }});
  cases.push_back({"str in", Predicate::StrIn("str", {"a", "bb", "cac"}),
                   [=](int64_t r) {
                     return s(r) == "a" || s(r) == "bb" || s(r) == "cac";
                   }});
  for (const char* pat : {"a%", "%b", "%ab%c%", "_a%", "%", "", "a_c"}) {
    const std::string p = pat;
    cases.push_back({"like '" + p + "'", Predicate::Like("str", p),
                     [=](int64_t r) {
                       return tpch_ref::RefLikeMatch(s(r), p);
                     }});
    cases.push_back({"not like '" + p + "'", Predicate::NotLike("str", p),
                     [=](int64_t r) {
                       return !tpch_ref::RefLikeMatch(s(r), p);
                     }});
  }
  cases.push_back(
      {"str test",
       Predicate::StrTest(
           "str", [](std::string_view v) { return v.size() % 2 == 1; }, 3.0),
       [=](int64_t r) { return s(r).size() % 2 == 1; }});
  return cases;
}

void CheckFilterMatrix(const storage::Table& t) {
  const ColumnSource src(t);
  for (const auto& [cand_name, cand] : Candidates(t.num_rows())) {
    SCOPED_TRACE(cand_name);
    const SelVec* base = cand.has_value() ? &*cand : nullptr;
    for (const FilterCase& c : FilterCases(t)) {
      SCOPED_TRACE(c.name);
      SelVec want;
      if (base != nullptr) {
        for (const int32_t r : *base) {
          if (c.oracle(r)) want.push_back(r);
        }
      } else {
        for (int32_t r = 0; r < t.num_rows(); ++r) {
          if (c.oracle(r)) want.push_back(r);
        }
      }
      std::vector<QueryStats> stats;
      for (const Mode& mode : Modes()) {
        SCOPED_TRACE(mode.name);
        ScopedExecOptions scope(mode.opts);
        stats.emplace_back();
        EXPECT_EQ(Filter(src, {c.pred}, &stats.back(), base), want);
      }
      ExpectSameStats(stats[0], stats[1]);
    }
  }
}

TEST(FilterKernelTest, EveryKindAndOperatorMatchesReference) {
  const storage::Table t = KernelTable(6000, 7);
  CheckFilterMatrix(t);
}

TEST(FilterKernelTest, EmptyInput) {
  const storage::Table t = KernelTable(0, 7);
  CheckFilterMatrix(t);
}

TEST(FilterKernelTest, AllAndNoRowsSelected) {
  const storage::Table t = KernelTable(3000, 8);
  const ColumnSource src(t);
  for (const Mode& mode : Modes()) {
    SCOPED_TRACE(mode.name);
    ScopedExecOptions scope(mode.opts);
    const SelVec all = Filter(
        src, {Predicate::BetweenI32("i32", kMin32, kMax32)}, nullptr);
    ASSERT_EQ(all.size(), 3000u);
    for (int32_t r = 0; r < 3000; ++r) EXPECT_EQ(all[r], r);
    EXPECT_TRUE(
        Filter(src, {Predicate::CmpI32("i32", CmpOp::kLt, kMin32)}, nullptr)
            .empty());
    EXPECT_TRUE(
        Filter(src, {Predicate::CmpI32("i32", CmpOp::kGt, kMax32)}, nullptr)
            .empty());
  }
}

TEST(FilterKernelTest, NanComparesFalseExceptNe) {
  const storage::Table t = KernelTable(2000, 9);
  const ColumnSource src(t);
  const double* f64 = t.column("f64").F64Data();
  for (const Mode& mode : Modes()) {
    SCOPED_TRACE(mode.name);
    ScopedExecOptions scope(mode.opts);
    for (const CmpOp op : kOps) {
      // Against a NaN constant: kNe selects every row, the rest none.
      const SelVec sel =
          Filter(src, {Predicate::CmpF64("f64", op, kNaN)}, nullptr);
      EXPECT_EQ(sel.size(), op == CmpOp::kNe ? 2000u : 0u);
      // NaN rows: selected by kNe against any constant, never otherwise.
      const SelVec any =
          Filter(src, {Predicate::CmpF64("f64", op, 1.0)}, nullptr);
      int nan_rows = 0;
      for (const int32_t r : any) nan_rows += std::isnan(f64[r]) ? 1 : 0;
      if (op == CmpOp::kNe) {
        int total_nan = 0;
        for (int r = 0; r < 2000; ++r) total_nan += std::isnan(f64[r]);
        EXPECT_GT(total_nan, 0);
        EXPECT_EQ(nan_rows, total_nan);
      } else {
        EXPECT_EQ(nan_rows, 0);
      }
    }
  }
}

TEST(FilterKernelTest, ConjunctionRefinesInOrder) {
  const storage::Table t = KernelTable(5000, 10);
  const ColumnSource src(t);
  const int32_t* i32 = t.column("i32").I32Data();
  const int64_t* i64 = t.column("i64").I64Data();
  const Column& str = t.column("str");
  SelVec want;
  for (int32_t r = 0; r < 5000; ++r) {
    if (i32[r] >= -10 && i32[r] <= 10 && i64[r] > 0 &&
        LikeMatch(str.StringAt(r), "%a%")) {
      want.push_back(r);
    }
  }
  std::vector<QueryStats> stats;
  for (const Mode& mode : Modes()) {
    SCOPED_TRACE(mode.name);
    ScopedExecOptions scope(mode.opts);
    stats.emplace_back();
    EXPECT_EQ(Filter(src,
                     {Predicate::BetweenI32("i32", -10, 10),
                      Predicate::CmpI64("i64", CmpOp::kGt, 0),
                      Predicate::Like("str", "%a%")},
                     &stats.back()),
              want);
  }
  ExpectSameStats(stats[0], stats[1]);
}

TEST(FilterKernelTest, ColCmpColEveryWidthClassAndOperator) {
  const storage::Table t = KernelTable(6000, 11);
  const ColumnSource src(t);
  struct Pair {
    const char* a;
    const char* b;
  };
  // int32 vs int32, int32 vs date (same width class), int64, float64 with
  // NaN on both sides.
  for (const Pair& pair : {Pair{"i32", "i32b"}, Pair{"i32", "date"},
                           Pair{"i64", "i64b"}, Pair{"f64", "f64b"}}) {
    SCOPED_TRACE(std::string(pair.a) + " vs " + pair.b);
    const Column& ca = t.column(pair.a);
    const Column& cb = t.column(pair.b);
    for (const CmpOp op : kOps) {
      SCOPED_TRACE(static_cast<int>(op));
      auto oracle = [&](int32_t r) {
        switch (ca.type()) {
          case DataType::kInt64:
            return RefCmp(ca.I64Data()[r], op, cb.I64Data()[r]);
          case DataType::kFloat64:
            return RefCmp(ca.F64Data()[r], op, cb.F64Data()[r]);
          default:
            return RefCmp(ca.I32Data()[r], op, cb.I32Data()[r]);
        }
      };
      for (const auto& [cand_name, cand] : Candidates(t.num_rows())) {
        SCOPED_TRACE(cand_name);
        const SelVec* base = cand.has_value() ? &*cand : nullptr;
        SelVec want;
        for (int32_t r = 0; r < t.num_rows(); ++r) {
          const bool in_base =
              base == nullptr ||
              std::binary_search(base->begin(), base->end(), r);
          if (in_base && oracle(r)) want.push_back(r);
        }
        std::vector<QueryStats> stats;
        for (const Mode& mode : Modes()) {
          SCOPED_TRACE(mode.name);
          ScopedExecOptions scope(mode.opts);
          stats.emplace_back();
          EXPECT_EQ(FilterColCmpCol(src, pair.a, op, pair.b, &stats.back(),
                                    base),
                    want);
        }
        ExpectSameStats(stats[0], stats[1]);
      }
    }
  }
}

// ---------- Gathers ----------

template <typename T>
std::vector<T> Values(const Column& c);
template <>
std::vector<int32_t> Values(const Column& c) {
  return {c.I32Data(), c.I32Data() + c.size()};
}
template <>
std::vector<int64_t> Values(const Column& c) {
  return {c.I64Data(), c.I64Data() + c.size()};
}
template <>
std::vector<double> Values(const Column& c) {
  return {c.F64Data(), c.F64Data() + c.size()};
}

template <typename T>
void CheckGathers(const Column& src) {
  const int64_t n = src.size();
  const std::vector<T> vals = Values<T>(src);
  SelVec sparse, dense;
  for (int32_t r = 0; r < n; ++r) {
    if (r % 97 == 5) sparse.push_back(r);
    if (r % 7 != 0) dense.push_back(r);
  }
  for (const SelVec& sel : {SelVec{}, sparse, dense}) {
    SCOPED_TRACE("selection of " + std::to_string(sel.size()));
    // Outer-join indices: the selection with a -1 after every fifth entry.
    std::vector<int32_t> idx;
    for (size_t k = 0; k < sel.size(); ++k) {
      idx.push_back(sel[k]);
      if (k % 5 == 4) idx.push_back(-1);
    }
    std::vector<QueryStats> stats;
    for (const Mode& mode : Modes()) {
      SCOPED_TRACE(mode.name);
      ScopedExecOptions scope(mode.opts);
      stats.emplace_back();
      const auto g = Gather(src, sel, &stats.back());
      ASSERT_EQ(g->size(), static_cast<int64_t>(sel.size()));
      EXPECT_EQ(g->dict(), src.dict());
      const std::vector<T> got = Values<T>(*g);
      for (size_t k = 0; k < sel.size(); ++k) {
        // Compare bit patterns so NaN payloads count too.
        EXPECT_EQ(std::memcmp(&got[k], &vals[sel[k]], sizeof(T)), 0) << k;
      }
      if (src.type() == DataType::kString) continue;
      const auto gd = GatherWithDefault(src, idx, -1.0, &stats.back());
      const std::vector<T> got_d = Values<T>(*gd);
      ASSERT_EQ(got_d.size(), idx.size());
      for (size_t k = 0; k < idx.size(); ++k) {
        const T want = idx[k] < 0 ? static_cast<T>(-1.0) : vals[idx[k]];
        EXPECT_EQ(std::memcmp(&got_d[k], &want, sizeof(T)), 0) << k;
      }
    }
    ExpectSameStats(stats[0], stats[1]);
  }
}

TEST(GatherKernelTest, EmptySparseAndDenseSelections) {
  const storage::Table t = KernelTable(6000, 12);
  {
    SCOPED_TRACE("i32");
    CheckGathers<int32_t>(t.column("i32"));
  }
  {
    SCOPED_TRACE("date");
    CheckGathers<int32_t>(t.column("date"));
  }
  {
    SCOPED_TRACE("str");
    CheckGathers<int32_t>(t.column("str"));
  }
  {
    SCOPED_TRACE("i64");
    CheckGathers<int64_t>(t.column("i64"));
  }
  {
    SCOPED_TRACE("f64");
    CheckGathers<double>(t.column("f64"));
  }
}

// ---------- LIKE ----------

TEST(LikeKernelTest, MatchesReferenceOnRandomPairs) {
  // Values over {a, b, _, %} (wildcard characters are ordinary bytes in a
  // value), patterns over {a, b, %, _}: short enough that segments often
  // overlap, repeat and fall at both ends.
  Rng rng(20241017);
  const char kValueChars[] = "aab_%";
  const char kPatternChars[] = "ab%%_";
  std::string value, pattern;
  int64_t matches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    value.resize(static_cast<size_t>(rng.Uniform(0, 9)));
    for (char& c : value) c = kValueChars[rng.Uniform(0, 4)];
    pattern.resize(static_cast<size_t>(rng.Uniform(0, 7)));
    for (char& c : pattern) c = kPatternChars[rng.Uniform(0, 4)];
    const bool got = LikeMatch(value, pattern);
    matches += got;
    if (got != tpch_ref::RefLikeMatch(value, pattern)) {
      FAIL() << "'" << value << "' LIKE '" << pattern << "': engine says "
             << got;
    }
  }
  // Both outcomes must be well represented for the comparison to mean
  // anything.
  EXPECT_GT(matches, 100'000);
  EXPECT_LT(matches, 900'000);
}

// ---------- Hash join probe ----------

// The join's exact output order: probe rows ascending, and for each the
// matching build rows in chain order (most recently inserted first).
JoinResult RefJoin(int64_t n_build, int64_t n_probe,
                   const std::function<bool(int64_t, int64_t)>& eq,
                   JoinKind kind) {
  JoinResult out;
  for (int64_t p = 0; p < n_probe; ++p) {
    bool matched = false;
    for (int64_t b = n_build - 1; b >= 0; --b) {
      if (!eq(b, p)) continue;
      matched = true;
      if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
        out.build_idx.push_back(static_cast<int32_t>(b));
        out.probe_idx.push_back(static_cast<int32_t>(p));
      }
    }
    if ((kind == JoinKind::kSemi && matched) ||
        (kind == JoinKind::kAnti && !matched)) {
      out.probe_idx.push_back(static_cast<int32_t>(p));
    }
    if (kind == JoinKind::kLeftOuter && !matched) {
      out.build_idx.push_back(-1);
      out.probe_idx.push_back(static_cast<int32_t>(p));
    }
  }
  return out;
}

// Value-wise key equality of build row b and probe row p: NaN equals
// nothing and -0.0 equals +0.0.
std::function<bool(int64_t, int64_t)> KeyEq(
    const std::vector<const Column*>& bk,
    const std::vector<const Column*>& pk) {
  return [&bk, &pk](int64_t b, int64_t p) {
    for (size_t i = 0; i < bk.size(); ++i) {
      switch (bk[i]->type()) {
        case DataType::kInt64:
          if (bk[i]->I64Data()[b] != pk[i]->I64Data()[p]) return false;
          break;
        case DataType::kFloat64:
          if (bk[i]->F64Data()[b] != pk[i]->F64Data()[p]) return false;
          break;
        default:
          if (bk[i]->I32Data()[b] != pk[i]->I32Data()[p]) return false;
          break;
      }
    }
    return true;
  };
}

TEST(JoinKernelTest, EveryKeyReaderMatchesReference) {
  const storage::Table build = KernelTable(1500, 13);
  const storage::Table probe = KernelTable(2500, 14);
  struct Keys {
    const char* name;
    std::vector<std::string> cols;
  };
  // Single int32, date, string-code and int64 keys take the typed readers;
  // two int32-class columns (negative values and INT32_MIN/INT32_MAX
  // included) take the packed reader; a float64 key and other multi-column
  // keys take the generic one. String keys compare dictionary codes (the
  // join's contract is a shared dictionary).
  const Keys keys[] = {{"i32", {"i32"}},
                       {"date", {"date"}},
                       {"str", {"str"}},
                       {"i64", {"i64"}},
                       {"f64", {"f64"}},
                       {"pair i32+str", {"i32", "str"}},
                       {"pair i32+i32b", {"i32", "i32b"}},
                       {"pair date+i32", {"date", "i32"}},
                       {"generic i32+i64", {"i32", "i64"}},
                       {"generic i32+i32b+str", {"i32", "i32b", "str"}}};
  for (const Keys& k : keys) {
    SCOPED_TRACE(k.name);
    std::vector<const Column*> bk, pk;
    for (const std::string& c : k.cols) {
      bk.push_back(&build.column(c));
      pk.push_back(&probe.column(c));
    }
    const auto eq = KeyEq(bk, pk);
    for (const JoinKind kind : {JoinKind::kInner, JoinKind::kSemi,
                                JoinKind::kAnti, JoinKind::kLeftOuter}) {
      SCOPED_TRACE(static_cast<int>(kind));
      const JoinResult want =
          RefJoin(build.num_rows(), probe.num_rows(), eq, kind);
      std::vector<QueryStats> stats;
      for (const Mode& mode : Modes()) {
        SCOPED_TRACE(mode.name);
        ScopedExecOptions scope(mode.opts);
        stats.emplace_back();
        const JoinResult got = HashJoin(bk, pk, kind, &stats.back());
        EXPECT_EQ(got.build_idx, want.build_idx);
        EXPECT_EQ(got.probe_idx, want.probe_idx);
      }
      ExpectSameStats(stats[0], stats[1]);
    }
  }
}

// An int32 key column holding key(r) for each of `rows` rows.
std::unique_ptr<Column> KeyCol(int64_t rows,
                               const std::function<int32_t(int64_t)>& key) {
  auto c = std::make_unique<Column>(DataType::kInt32);
  for (int64_t r = 0; r < rows; ++r) c->AppendInt32(key(r));
  return c;
}

// The partitioned parallel build against the one-thread build: the same
// chains, so the same pairs in the same order and the same OpStats, at 2,
// 3 (a task count that does not divide the bucket count) and 4 threads.
TEST(JoinKernelTest, PartitionedBuildMatchesOneThreadBuild) {
  struct Case {
    const char* name;
    int64_t build_rows;
    std::function<int32_t(int64_t)> key;
  };
  const Case cases[] = {
      // Each key on ~30 build rows: the chain order fixes the pair order.
      {"duplicate keys", 3000, [](int64_t r) { return (r * 7) % 100 - 50; }},
      // One key: every row in one bucket, so one task links them all.
      {"one key", 2000, [](int64_t) { return 7; }},
      // One row past the one-morsel build (256-row morsels).
      {"just above the threshold", 257, [](int64_t r) { return r / 2; }},
  };
  const auto probe = KeyCol(700, [](int64_t r) { return r % 160 - 60; });
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto build = KeyCol(c.build_rows, c.key);
    const std::vector<const Column*> bk = {build.get()}, pk = {probe.get()};
    for (const JoinKind kind : {JoinKind::kInner, JoinKind::kSemi,
                                JoinKind::kAnti, JoinKind::kLeftOuter}) {
      SCOPED_TRACE(static_cast<int>(kind));
      QueryStats want_stats;
      const JoinResult want = HashJoin(bk, pk, kind, &want_stats);
      for (const int threads : {2, 3, 4}) {
        SCOPED_TRACE(threads);
        ExecOptions opts;
        opts.num_threads = threads;
        opts.morsel_rows = 256;
        ScopedExecOptions scope(opts);
        ASSERT_EQ(PlannedThreads(c.build_rows),
                  std::min<int64_t>(threads, (c.build_rows + 255) / 256));
        QueryStats stats;
        const JoinResult got = HashJoin(bk, pk, kind, &stats);
        EXPECT_EQ(got.build_idx, want.build_idx);
        EXPECT_EQ(got.probe_idx, want.probe_idx);
        ExpectSameStats(stats, want_stats);
      }
    }
  }
}

// An empty build side links nothing: its buckets are emptied without a
// build pipeline, so anti and left outer keep every probe row and inner
// and semi keep none.
TEST(JoinKernelTest, EmptyBuildSide) {
  const auto build = KeyCol(0, [](int64_t) { return 0; });
  const auto probe = KeyCol(700, [](int64_t r) { return r % 3; });
  const std::vector<const Column*> bk = {build.get()}, pk = {probe.get()};
  std::vector<int32_t> every(700);
  for (int32_t r = 0; r < 700; ++r) every[r] = r;
  for (const Mode& mode : Modes()) {
    SCOPED_TRACE(mode.name);
    ScopedExecOptions scope(mode.opts);
    EXPECT_TRUE(HashJoin(bk, pk, JoinKind::kInner, nullptr).probe_idx.empty());
    EXPECT_TRUE(HashJoin(bk, pk, JoinKind::kSemi, nullptr).probe_idx.empty());
    EXPECT_EQ(HashJoin(bk, pk, JoinKind::kAnti, nullptr).probe_idx, every);
    const JoinResult outer = HashJoin(bk, pk, JoinKind::kLeftOuter, nullptr);
    EXPECT_EQ(outer.probe_idx, every);
    EXPECT_EQ(outer.build_idx, std::vector<int32_t>(700, -1));
  }
}

// A float64 column holding value(r) for each of `rows` rows.
std::unique_ptr<Column> F64Col(int64_t rows,
                               const std::function<double(int64_t)>& value) {
  auto c = std::make_unique<Column>(DataType::kFloat64);
  for (int64_t r = 0; r < rows; ++r) c->AppendFloat64(value(r));
  return c;
}

// The chain entries that a walk of each probe row's bucket visits in the
// bucket-chained table (RowHash, bit_ceil(2 n_build) buckets, newest row
// first): a semi or anti row stops at its first match, any other row
// visits the whole chain.
double WalkedChainSteps(const std::vector<const Column*>& bk,
                        const std::vector<const Column*>& pk, JoinKind kind) {
  const int64_t n_build = bk[0]->size();
  const uint64_t mask =
      std::bit_ceil(static_cast<uint64_t>(std::max<int64_t>(n_build, 1)) * 2) -
      1;
  std::vector<std::vector<int64_t>> chains(mask + 1);
  for (int64_t b = n_build - 1; b >= 0; --b) {
    chains[RowHash(bk, b) & mask].push_back(b);
  }
  const auto eq = KeyEq(bk, pk);
  const bool first_match_decides =
      kind == JoinKind::kSemi || kind == JoinKind::kAnti;
  double steps = 0;
  for (int64_t p = 0; p < pk[0]->size(); ++p) {
    for (const int64_t b : chains[RowHash(pk, p) & mask]) {
      ++steps;
      if (first_match_decides && eq(b, p)) break;
    }
  }
  return steps;
}

// A probe row whose bucket holds no build row with the row's hash tag skips
// the walk, and counts the chain that the walk would visit, so
// `chain_steps` (the probe's rand_count less one per probe row) stay those
// of a walk of every chain. Every case has 600 build rows (2048 buckets)
// and probes with 2047 rows, where no filter is built, and with 2348,
// where one is, at one thread and at four (a partitioned build).
TEST(JoinKernelTest, ProbeCountsTheChainsItSkips) {
  constexpr int64_t kBuild = 600;
  constexpr uint64_t kMask = 2047;
  auto bucket = [](int32_t k) { return HashI32(k) & kMask; };
  auto tag = [](int32_t k) { return HashI32(k) >> 61; };

  // Key 7 on 300 build rows saturates its bucket's chain length. The
  // probe asks for 7, and for keys in 7's bucket whose tag no build row
  // of the bucket has: those rows walk the saturated chain to its end.
  auto saturated_build = [](int64_t r) {
    return r < 300 ? 7 : static_cast<int32_t>(r * 1000);
  };
  std::vector<bool> bucket_tags(8);
  int64_t saturated_len = 0;
  for (int64_t r = 0; r < kBuild; ++r) {
    if (bucket(saturated_build(r)) != bucket(7)) continue;
    bucket_tags[tag(saturated_build(r))] = true;
    ++saturated_len;
  }
  ASSERT_GT(saturated_len, 255);
  std::vector<int32_t> absent_tag;
  for (int32_t k = 1'000'000; absent_tag.size() < 40; ++k) {
    if (bucket(k) == bucket(7) && !bucket_tags[tag(k)]) absent_tag.push_back(k);
  }
  // Keys that hit no build row of 0..599 but land in an occupied bucket.
  std::vector<bool> occupied(kMask + 1);
  for (int32_t k = 0; k < kBuild; ++k) occupied[bucket(k)] = true;
  std::vector<int32_t> misses;
  for (int32_t k = 1'000'000; misses.size() < 2348; ++k) {
    if (occupied[bucket(k)]) misses.push_back(k);
  }
  const double specials[] = {-0.0, 0.0, kNaN};

  struct Case {
    const char* name;
    std::function<std::unique_ptr<Column>(int64_t rows)> make_build;
    std::function<std::unique_ptr<Column>(int64_t rows)> make_probe;
  };
  const Case cases[] = {
      {"duplicate keys",
       [](int64_t rows) {
         return KeyCol(rows, [](int64_t r) { return (r * 7) % 100 - 50; });
       },
       [](int64_t rows) {
         return KeyCol(rows, [](int64_t r) { return r % 160 - 60; });
       }},
      {"saturated chain",
       [&](int64_t rows) { return KeyCol(rows, saturated_build); },
       [&](int64_t rows) {
         return KeyCol(rows, [&](int64_t r) {
           return r % 4 == 0   ? 7
                  : r % 4 == 1 ? absent_tag[r % absent_tag.size()]
                               : static_cast<int32_t>(r % 700 * 1000);
         });
       }},
      {"every row misses into an occupied bucket",
       [](int64_t rows) {
         return KeyCol(rows, [](int64_t r) { return static_cast<int32_t>(r); });
       },
       [&](int64_t rows) {
         return KeyCol(rows, [&](int64_t r) { return misses[r]; });
       }},
      // The generic reader: -0.0 and +0.0 are one key, NaN matches nothing.
      {"float64 zeros and NaN",
       [&](int64_t rows) {
         return F64Col(rows, [&](int64_t r) {
           return r % 5 == 0 ? specials[r % 3]
                             : static_cast<double>(r % 97) / 2;
         });
       },
       [&](int64_t rows) {
         return F64Col(rows, [&](int64_t r) {
           return r % 4 == 0 ? specials[r % 3]
                             : static_cast<double>(r % 300) / 2 - 10;
         });
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto build = c.make_build(kBuild);
    for (const int64_t probe_rows : {int64_t{2047}, int64_t{2348}}) {
      SCOPED_TRACE(probe_rows);
      const auto probe = c.make_probe(probe_rows);
      const std::vector<const Column*> bk = {build.get()}, pk = {probe.get()};
      for (const JoinKind kind : {JoinKind::kInner, JoinKind::kSemi,
                                  JoinKind::kAnti, JoinKind::kLeftOuter}) {
        SCOPED_TRACE(static_cast<int>(kind));
        const JoinResult want =
            RefJoin(kBuild, probe_rows, KeyEq(bk, pk), kind);
        const double want_steps = WalkedChainSteps(bk, pk, kind);
        std::vector<QueryStats> stats;
        for (const Mode& mode : Modes()) {
          SCOPED_TRACE(mode.name);
          ScopedExecOptions scope(mode.opts);
          stats.emplace_back();
          const JoinResult got = HashJoin(bk, pk, kind, &stats.back());
          EXPECT_EQ(got.build_idx, want.build_idx);
          EXPECT_EQ(got.probe_idx, want.probe_idx);
          ASSERT_EQ(stats.back().ops.size(), 2u);
          const OpStats& probe_op = stats.back().ops[1];
          ASSERT_EQ(probe_op.op, "hash_probe");
          EXPECT_EQ(probe_op.rand_count - static_cast<double>(probe_rows),
                    want_steps);
        }
        ExpectSameStats(stats[0], stats[1]);
      }
    }
  }
}

// ---------- Hash aggregation ----------

// Each row's bits as u64 (int32-class values through uint32_t), so every
// column type compares exactly, NaN payloads and the sign of zero included.
uint64_t Bits(const Column& c, int64_t row) {
  switch (c.type()) {
    case DataType::kInt64:
      return static_cast<uint64_t>(c.I64Data()[row]);
    case DataType::kFloat64:
      return std::bit_cast<uint64_t>(c.F64Data()[row]);
    default:
      return static_cast<uint32_t>(c.I32Data()[row]);
  }
}

std::vector<uint64_t> Bits(const Column& c) {
  std::vector<uint64_t> out(static_cast<size_t>(c.size()));
  for (int64_t r = 0; r < c.size(); ++r) out[r] = Bits(c, r);
  return out;
}

// The finalized bits of reference state `s`, group by group.
std::vector<uint64_t> FinalBits(const tpch_ref::RefAggState& s,
                                size_t groups) {
  std::vector<uint64_t> out(groups);
  for (size_t g = 0; g < groups; ++g) {
    switch (s.fn) {
      case AggFn::kSum:
        out[g] = std::bit_cast<uint64_t>(s.f64[g]);
        break;
      case AggFn::kAvg:
        out[g] = std::bit_cast<uint64_t>(
            s.i64[g] == 0 ? 0.0 : s.f64[g] / static_cast<double>(s.i64[g]));
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        if (s.in->type() == DataType::kFloat64) {
          out[g] = std::bit_cast<uint64_t>(s.f64[g]);
        } else if (s.in->type() == DataType::kInt64) {
          out[g] = static_cast<uint64_t>(s.i64[g]);
        } else {
          out[g] = static_cast<uint32_t>(static_cast<int32_t>(s.i64[g]));
        }
        break;
      default:
        out[g] = static_cast<uint64_t>(s.i64[g]);
        break;
    }
  }
  return out;
}

DataType OutputType(const AggSpec& a, const ColumnSource& src) {
  switch (a.fn) {
    case AggFn::kSum:
    case AggFn::kAvg:
      return DataType::kFloat64;
    case AggFn::kMin:
    case AggFn::kMax:
      return src.column(a.in).type();
    default:
      return DataType::kInt64;
  }
}

constexpr int64_t kTwo53 = int64_t{1} << 53;

// Key columns k32/k32b (pair halves: k32b repeats its few negative values
// under every k32, so a sign-extending pack would merge groups), kdate,
// k64, kf64 (-0.0 and +0.0 both present) and kstr, all functions of the
// row's key id; input columns v32 (with INT32_MIN/INT32_MAX), vdate, v64
// (with ±(2^53+1) and 2^53+3, which a double accumulator rounds) and vf64
// (with NaN and -0.0), drawn per row.
Relation AggTable(int64_t rows, const std::function<int64_t(int64_t)>& id,
                  uint64_t seed) {
  Rng rng(seed);
  auto k32 = std::make_unique<Column>(DataType::kInt32);
  auto k32b = std::make_unique<Column>(DataType::kInt32);
  auto kdate = std::make_unique<Column>(DataType::kDate);
  auto k64 = std::make_unique<Column>(DataType::kInt64);
  auto kf64 = std::make_unique<Column>(DataType::kFloat64);
  auto kstr = std::make_unique<Column>(DataType::kString);
  auto v32 = std::make_unique<Column>(DataType::kInt32);
  auto vdate = std::make_unique<Column>(DataType::kDate);
  auto v64 = std::make_unique<Column>(DataType::kInt64);
  auto vf64 = std::make_unique<Column>(DataType::kFloat64);
  constexpr int32_t kHalves[] = {-1, -2, 0, kMin32, 7};
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t k = id(r);
    const int64_t a = k / 5;
    k32->AppendInt32(a == 0   ? kMin32
                     : a == 1 ? kMax32
                              : static_cast<int32_t>(a % 2 ? -a : a));
    k32b->AppendInt32(kHalves[k % 5]);
    kdate->AppendInt32(static_cast<int32_t>(k));
    k64->AppendInt64(k * 0x100000001LL - (k % 2 ? int64_t{1} << 62 : 0));
    kf64->AppendFloat64(k % 7 == 3 ? -0.0 : k % 7 == 4 ? 0.0 : 0.5 * k);
    std::string word = std::to_string(k % 50);
    word.insert(word.begin(), static_cast<char>('a' + k % 26));
    kstr->AppendString(word);
    switch (rng.Uniform(0, 9)) {
      case 0:
        v32->AppendInt32(kMin32);
        break;
      case 1:
        v32->AppendInt32(kMax32);
        break;
      default:
        v32->AppendInt32(static_cast<int32_t>(rng.Uniform(-1000, 1000)));
        break;
    }
    vdate->AppendInt32(static_cast<int32_t>(rng.Uniform(0, 20000)));
    switch (rng.Uniform(0, 9)) {
      case 0:
        v64->AppendInt64(kTwo53 + 1);
        break;
      case 1:
        v64->AppendInt64(kTwo53 + 3);
        break;
      case 2:
        v64->AppendInt64(-kTwo53 - 1);
        break;
      default:
        v64->AppendInt64(rng.Uniform(-(int64_t{1} << 40), int64_t{1} << 40));
        break;
    }
    switch (rng.Uniform(0, 19)) {
      case 0:
        vf64->AppendFloat64(kNaN);
        break;
      case 1:
        vf64->AppendFloat64(-0.0);
        break;
      default:
        vf64->AppendFloat64(0.125 *
                            static_cast<double>(rng.Uniform(-8000, 8000)));
        break;
    }
  }
  // Output keys must carry their source's statistics identity.
  k32->set_origin(11);
  kstr->set_origin(12);
  Relation rel;
  rel.AddColumn("k32", std::move(k32));
  rel.AddColumn("k32b", std::move(k32b));
  rel.AddColumn("kdate", std::move(kdate));
  rel.AddColumn("k64", std::move(k64));
  rel.AddColumn("kf64", std::move(kf64));
  rel.AddColumn("kstr", std::move(kstr));
  rel.AddColumn("v32", std::move(v32));
  rel.AddColumn("vdate", std::move(vdate));
  rel.AddColumn("v64", std::move(v64));
  rel.AddColumn("vf64", std::move(vf64));
  return rel;
}

// Every AggFn over every input type it accepts.
std::vector<AggSpec> AllAggs() {
  std::vector<AggSpec> aggs;
  for (const char* in : {"v32", "vdate", "v64", "vf64"}) {
    const std::string s(in);
    aggs.push_back({AggFn::kSum, s, "sum_" + s});
    aggs.push_back({AggFn::kMin, s, "min_" + s});
    aggs.push_back({AggFn::kMax, s, "max_" + s});
    aggs.push_back({AggFn::kCount, s, "count_" + s});
    aggs.push_back({AggFn::kAvg, s, "avg_" + s});
    if (s != "vf64") aggs.push_back({AggFn::kSumI64, s, "isum_" + s});
  }
  aggs.push_back({AggFn::kCountStar, "", "count_star"});
  return aggs;
}

struct AggKeys {
  const char* name;
  std::vector<std::string> cols;
};

// One key set per reader: one int32-class column, one int64 column, two
// int32-class columns packed, and the generic reader (a float64 key, mixed
// widths, three columns), plus the global aggregate.
const AggKeys kAggKeys[] = {{"i32", {"k32"}},
                            {"date", {"kdate"}},
                            {"str", {"kstr"}},
                            {"i64", {"k64"}},
                            {"pair", {"k32", "k32b"}},
                            {"pair str+date", {"kstr", "kdate"}},
                            {"generic f64", {"kf64"}},
                            {"generic i32+i64", {"k32", "k64"}},
                            {"generic 3 columns", {"k32b", "kstr", "k64"}},
                            {"global", {}}};

// HashAggregate against the reference, sequentially and on four threads
// with 256-row morsels (the reference then runs on the same chunk split
// and merges in chunk order): same groups in the same order, every output
// bit, and the OpStats that depend on the table (compute_ops, rand_count).
void CheckAggregate(const Relation& rel, const std::vector<std::string>& by,
                    const std::vector<AggSpec>& aggs) {
  const ColumnSource src(rel);
  const int64_t n = rel.num_rows();
  std::vector<const Column*> keys;
  for (const std::string& k : by) keys.push_back(&rel.column(k));
  std::vector<tpch_ref::RefAggInput> ref_aggs;
  for (const AggSpec& a : aggs) {
    ref_aggs.push_back(
        {a.fn, a.fn == AggFn::kCountStar ? nullptr : &rel.column(a.in)});
  }
  for (const Mode& mode : Modes()) {
    SCOPED_TRACE(mode.name);
    ScopedExecOptions scope(mode.opts);
    const int threads = PlannedThreads(n);
    tpch_ref::RefGroups want;
    if (threads <= 1) {
      want = tpch_ref::RefAggregateRange(keys, ref_aggs, 0, n);
    } else {
      const int64_t chunk = (n + threads - 1) / threads;
      std::vector<tpch_ref::RefGroups> parts;
      for (int64_t b = 0; b < n; b += chunk) {
        parts.push_back(tpch_ref::RefAggregateRange(keys, ref_aggs, b,
                                                    std::min(n, b + chunk)));
      }
      want = tpch_ref::RefMergeChunks(keys, ref_aggs, parts);
    }
    const size_t groups = want.group_rep.size();

    QueryStats stats;
    const Relation got = HashAggregate(src, by, aggs, &stats);
    ASSERT_EQ(got.num_columns(), static_cast<int>(by.size() + aggs.size()));
    ASSERT_EQ(got.num_rows(), static_cast<int64_t>(groups));
    for (size_t k = 0; k < keys.size(); ++k) {
      SCOPED_TRACE(by[k]);
      const Column& col = got.column(static_cast<int>(k));
      EXPECT_EQ(col.type(), keys[k]->type());
      EXPECT_EQ(col.dict(), keys[k]->dict());
      EXPECT_EQ(col.origin(), keys[k]->origin());
      std::vector<uint64_t> want_bits;
      for (const int32_t r : want.group_rep) {
        want_bits.push_back(Bits(*keys[k], r));
      }
      EXPECT_EQ(Bits(col), want_bits);
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      SCOPED_TRACE(aggs[i].out);
      const Column& col = got.column(static_cast<int>(by.size() + i));
      EXPECT_EQ(col.type(), OutputType(aggs[i], src));
      EXPECT_EQ(Bits(col), FinalBits(want.states[i], groups));
    }

    ASSERT_EQ(stats.ops.size(), 1u);
    const OpStats& op = stats.ops[0];
    const auto steps = static_cast<double>(want.chain_steps);
    EXPECT_EQ(op.compute_ops,
              static_cast<double>(n) *
                      (cost::kHash * std::max<size_t>(keys.size(), 1) +
                       cost::kAggUpdate * static_cast<double>(aggs.size())) +
                  steps * cost::kCompare);
    EXPECT_EQ(op.rand_count,
              keys.empty() ? 0 : static_cast<double>(n) + steps);
    EXPECT_EQ(op.rows_out, static_cast<double>(groups));
  }
}

void CheckEveryReader(const Relation& rel) {
  const std::vector<AggSpec> aggs = AllAggs();
  for (const AggKeys& k : kAggKeys) {
    SCOPED_TRACE(k.name);
    CheckAggregate(rel, k.cols, aggs);
  }
}

TEST(AggregateKernelTest, RandomGroupsMatchReference) {
  Rng rng(71);
  std::vector<int64_t> ids(5000);
  for (int64_t& i : ids) i = rng.Uniform(0, 299);
  CheckEveryReader(AggTable(5000, [&](int64_t r) { return ids[r]; }, 72));
}

TEST(AggregateKernelTest, EmptyInput) {
  CheckEveryReader(AggTable(0, [](int64_t r) { return r; }, 73));
}

TEST(AggregateKernelTest, OneRow) {
  CheckEveryReader(AggTable(1, [](int64_t) { return 12; }, 74));
}

TEST(AggregateKernelTest, AllRowsDistinct) {
  CheckEveryReader(AggTable(3000, [](int64_t r) { return r; }, 75));
}

TEST(AggregateKernelTest, AllRowsEqual) {
  CheckEveryReader(AggTable(2000, [](int64_t) { return 7; }, 76));
}

// AggTable plus key columns clustered on k >> 5 for non-decreasing ids k:
// r32 (int32, negative values first), r64 (int64, wide) and rf64 (float64,
// with -0.0 and +0.0 inside one run), and sub (int32, k & 31, negative
// values and INT32_MIN included), which tells a run's groups apart.
Relation RunTable(int64_t rows, const std::function<int64_t(int64_t)>& id,
                  uint64_t seed) {
  Relation rel = AggTable(rows, id, seed);
  auto r32 = std::make_unique<Column>(DataType::kInt32);
  auto r64 = std::make_unique<Column>(DataType::kInt64);
  auto rf64 = std::make_unique<Column>(DataType::kFloat64);
  auto sub = std::make_unique<Column>(DataType::kInt32);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t k = id(r);
    const int64_t run = k >> 5;
    r32->AppendInt32(static_cast<int32_t>(run - 40));
    r64->AppendInt64(run * 0x100000001LL - (int64_t{1} << 62));
    rf64->AppendFloat64(run == 6 ? (r % 2 ? -0.0 : 0.0) : 0.5 * (run - 6));
    sub->AppendInt32((k & 31) == 31 ? kMin32
                                    : static_cast<int32_t>(k & 31) - 4);
  }
  rel.AddColumn("r32", std::move(r32));
  rel.AddColumn("r64", std::move(r64));
  rel.AddColumn("rf64", std::move(rf64));
  rel.AddColumn("sub", std::move(sub));
  return rel;
}

// One key set per reader with a clustered lead column: one int32 and one
// int64 key (a run is one group), a packed pair, and generic keys led by
// int64 and by float64.
void CheckClusteredReaders(const Relation& rel) {
  const AggKeys clustered[] = {{"i32", {"r32"}},
                               {"i64", {"r64"}},
                               {"pair", {"r32", "sub"}},
                               {"generic i64+i32", {"r64", "sub"}},
                               {"generic f64", {"rf64"}},
                               {"generic f64+i32", {"rf64", "sub"}}};
  const std::vector<AggSpec> aggs = AllAggs();
  for (const AggKeys& k : clustered) {
    SCOPED_TRACE(k.name);
    CheckAggregate(rel, k.cols, aggs);
  }
}

// Runs of 12 rows whose three groups repeat non-adjacently (0 1 2 0 1 2
// ...), and runs of random length.
TEST(AggregateKernelTest, ClusteredRunsMatchReference) {
  CheckClusteredReaders(
      RunTable(3000, [](int64_t r) { return (r / 12) * 32 + r % 3; }, 78));
  Rng rng(79);
  std::vector<int64_t> ids(4000);
  int64_t k = 0;
  for (int64_t& i : ids) {
    if (rng.Uniform(0, 5) == 0) k += 32 * rng.Uniform(1, 3);
    i = k + rng.Uniform(0, 6);
  }
  CheckClusteredReaders(RunTable(4000, [&](int64_t r) { return ids[r]; }, 80));
}

// 2000 rows in four 500-row chunks at four threads: one run covers rows
// 400-1599, so it straddles two chunk edges and holds chunks 1 and 2
// whole. Its groups appear in another order in chunk 1 than in chunk 0,
// chunk 1 adds two, and chunk 2 repeats all seven.
TEST(AggregateKernelTest, RunsAcrossChunkEdges) {
  CheckClusteredReaders(RunTable(
      2000,
      [](int64_t r) {
        if (r < 400) return (r / 10) * 32 + r % 3;
        if (r < 480) return 40 * 32 + r % 3;
        if (r < 800) return 40 * 32 + 4 - r % 5;
        if (r < 1100) return 40 * 32 + 5 + r % 2;
        if (r < 1600) return 40 * 32 + r % 7;
        return (r / 10) * 32 + r % 2;
      },
      81));
}

// Runs of 9, 17 and 32 distinct groups: more than the run path matches
// row by row (8), so the aggregate takes the hash path. Runs of exactly 8
// stay on the run path.
TEST(AggregateKernelTest, RunsWithManyGroups) {
  CheckClusteredReaders(
      RunTable(1500, [](int64_t r) { return (r / 40) * 32 + r % 8; }, 88));
  CheckClusteredReaders(
      RunTable(1500, [](int64_t r) { return (r / 40) * 32 + r % 9; }, 89));
  CheckClusteredReaders(
      RunTable(1500, [](int64_t r) { return (r / 40) * 32 + r % 17; }, 82));
  CheckClusteredReaders(
      RunTable(1500, [](int64_t r) { return (r / 64) * 32 + r % 32; }, 83));
}

TEST(AggregateKernelTest, OneRowRuns) {
  CheckClusteredReaders(RunTable(1000, [](int64_t r) { return r * 32; }, 84));
}

// Clustered but for the last row, which repeats the first row's group:
// the check must see the descent.
TEST(AggregateKernelTest, LeadDescendsAtTheLastRow) {
  CheckClusteredReaders(RunTable(
      1200, [](int64_t r) { return r < 1199 ? (r / 4) * 32 + r % 3 : 0; },
      85));
}

// 2000 rows in four 500-row chunks at four threads, each chunk clustered on
// its own: the lead descends only from row 999 to row 1000, a chunk edge,
// or only in chunk 0's first rows, so the other chunks stop early.
TEST(AggregateKernelTest, LeadDescendsAtAChunkEdgeOrInOneChunk) {
  CheckClusteredReaders(RunTable(
      2000, [](int64_t r) { return ((r % 1000) / 4) * 32 + r % 3; }, 86));
  CheckClusteredReaders(RunTable(
      2000, [](int64_t r) { return r < 3 ? (3 - r) * 32 : (r / 4) * 32 + r % 3; },
      87));
}

// Over a million groups: the tables and states grow many times, and the
// prefetches run ahead over every batch.
TEST(AggregateKernelTest, MoreThanAMillionGroups) {
  const Relation rel =
      AggTable(1'050'000, [](int64_t r) { return r; }, 77);
  const std::vector<AggSpec> aggs = {{AggFn::kSum, "vf64", "sum"},
                                     {AggFn::kMin, "v64", "min"},
                                     {AggFn::kAvg, "v32", "avg"},
                                     {AggFn::kCountStar, "", "n"}};
  // Keys distinct per row, one set per reader.
  const AggKeys distinct[] = {{"i32", {"kdate"}},
                              {"i64", {"k64"}},
                              {"pair", {"k32", "k32b"}},
                              {"generic", {"k32", "k64"}}};
  for (const AggKeys& k : distinct) {
    SCOPED_TRACE(k.name);
    CheckAggregate(rel, k.cols, aggs);
  }
}

// ---------- Whole-table scans ----------

// Answers nothing; installed only so operators record est_rows.
class NullEstimator : public CardinalityEstimator {
 public:
  double EstimateFilterRows(const ColumnSource&, const Predicate&,
                            int64_t) const override {
    return 0;
  }
  double EstimateColCmpRows(const ColumnSource&, const std::string&, CmpOp,
                            const std::string&, int64_t) const override {
    return 0;
  }
  double EstimateJoinRows(const std::vector<const Column*>&, int64_t,
                          const std::vector<const Column*>&, int64_t,
                          JoinKind) const override {
    return 0;
  }
  double EstimateGroupRows(const ColumnSource&,
                           const std::vector<std::string>&,
                           int64_t) const override {
    return 0;
  }
};

// ScanAll borrows the table's own columns, and records exactly what
// GatherColumns over the identity selection records: every OpStats field,
// the base-column touches and the tracked bytes, at 1 and 4 threads, with
// and without an estimator.
TEST(ScanKernelTest, BorrowsAndCountsLikeAnIdentityGather) {
  storage::Table t = KernelTable(3000, 13);
  t.column("str").set_origin(21);
  t.column("f64").set_origin(22);
  const std::vector<std::string> cols = {"i32", "date", "i64", "f64", "str"};
  std::vector<std::pair<std::string, std::string>> named;
  for (const std::string& c : cols) named.emplace_back(c, c);
  SelVec all(t.num_rows());
  for (int32_t r = 0; r < t.num_rows(); ++r) all[r] = r;
  const NullEstimator estimator;
  for (Mode mode : Modes()) {
    for (const bool estimate : {false, true}) {
      SCOPED_TRACE(std::string(mode.name) + (estimate ? ", estimated" : ""));
      mode.opts.cardinality_estimator = estimate ? &estimator : nullptr;
      ScopedExecOptions scope(mode.opts);
      QueryStats scanned, gathered;
      const Relation r = ScanAll(t, cols, &scanned);
      GatherColumns(ColumnSource(t), named, all, &gathered);
      ASSERT_EQ(r.num_columns(), static_cast<int>(cols.size()));
      for (int c = 0; c < r.num_columns(); ++c) {
        EXPECT_EQ(r.name(c), cols[c]);
        EXPECT_EQ(&r.column(c), &t.column(cols[c])) << cols[c];
      }
      EXPECT_EQ(r.num_rows(), t.num_rows());
      ExpectSameStats(scanned, gathered);
      EXPECT_EQ(scanned.base_columns, gathered.base_columns);
      EXPECT_EQ(scanned.peak_intermediate_bytes,
                gathered.peak_intermediate_bytes);
      EXPECT_EQ(scanned.live_intermediate_bytes,
                gathered.live_intermediate_bytes);
    }
  }
}

// Taking a borrowed column hands out an owned copy of it and leaves the
// table as it was; the relation still counts the column as a copy.
TEST(ScanKernelTest, TakingABorrowedColumnCopiesIt) {
  storage::Table t = KernelTable(2000, 14);
  t.column("str").set_origin(31);
  t.column("f64").set_origin(32);
  for (const char* name : {"i32", "i64", "f64", "str"}) {
    SCOPED_TRACE(name);
    const Column& src = t.column(name);
    const std::vector<uint64_t> before = Bits(src);
    Relation r = ScanAll(t, {name}, nullptr);
    EXPECT_EQ(r.ValueBytes(), src.size() * storage::TypeWidth(src.type()));
    const std::unique_ptr<Column> taken = r.TakeColumn(0);
    ASSERT_NE(taken.get(), &src);
    EXPECT_EQ(taken->type(), src.type());
    EXPECT_EQ(taken->dict(), src.dict());
    EXPECT_EQ(taken->origin(), src.origin());
    EXPECT_EQ(Bits(*taken), before);
    EXPECT_EQ(&t.column(name), &src);
    EXPECT_EQ(Bits(src), before);
    EXPECT_EQ(&r.column(0), &src);
  }
}

}  // namespace
}  // namespace wimpi::exec
