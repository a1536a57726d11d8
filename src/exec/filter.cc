#include "exec/filter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <type_traits>

#include "common/strings.h"
#include "exec/estimator.h"
#include "exec/morsel_exec.h"
#include "obs/profiler.h"

namespace wimpi::exec {

Predicate Predicate::CmpI32(std::string col, CmpOp op, int32_t v) {
  Predicate p;
  p.kind_ = Kind::kCmpI32;
  p.col_ = std::move(col);
  p.op_ = op;
  p.i64_ = v;
  return p;
}

Predicate Predicate::CmpI64(std::string col, CmpOp op, int64_t v) {
  Predicate p;
  p.kind_ = Kind::kCmpI64;
  p.col_ = std::move(col);
  p.op_ = op;
  p.i64_ = v;
  return p;
}

Predicate Predicate::CmpF64(std::string col, CmpOp op, double v) {
  Predicate p;
  p.kind_ = Kind::kCmpF64;
  p.col_ = std::move(col);
  p.op_ = op;
  p.f64_ = v;
  return p;
}

Predicate Predicate::BetweenI32(std::string col, int32_t lo, int32_t hi) {
  Predicate p;
  p.kind_ = Kind::kBetweenI32;
  p.col_ = std::move(col);
  p.i64_ = lo;
  p.i64_hi_ = hi;
  return p;
}

Predicate Predicate::BetweenF64(std::string col, double lo, double hi) {
  Predicate p;
  p.kind_ = Kind::kBetweenF64;
  p.col_ = std::move(col);
  p.f64_ = lo;
  p.f64_hi_ = hi;
  return p;
}

Predicate Predicate::InI32(std::string col, std::vector<int32_t> values) {
  Predicate p;
  p.kind_ = Kind::kInI32;
  p.col_ = std::move(col);
  std::sort(values.begin(), values.end());
  p.in_values_ = std::move(values);
  return p;
}

Predicate Predicate::StrEq(std::string col, std::string value) {
  Predicate p = StrTest(
      std::move(col),
      [v = std::move(value)](std::string_view s) { return s == v; }, 2.0);
  p.str_hint_ = StrHint::kEq;
  p.str_hint_count_ = 1;
  return p;
}

Predicate Predicate::StrNe(std::string col, std::string value) {
  Predicate p = StrTest(
      std::move(col),
      [v = std::move(value)](std::string_view s) { return s != v; }, 2.0);
  p.str_hint_ = StrHint::kNe;
  p.str_hint_count_ = 1;
  return p;
}

Predicate Predicate::StrIn(std::string col, std::vector<std::string> values) {
  const int count = static_cast<int>(values.size());
  Predicate p = StrTest(
      std::move(col),
      [vs = std::move(values)](std::string_view s) {
        for (const auto& v : vs) {
          if (s == v) return true;
        }
        return false;
      },
      4.0);
  p.str_hint_ = StrHint::kIn;
  p.str_hint_count_ = count;
  return p;
}

Predicate Predicate::Like(std::string col, std::string pattern) {
  // Pattern matching costs grow with pattern complexity (MonetDB falls back
  // to PCRE for multi-wildcard patterns).
  const double cost = 4.0 + 2.0 * cost::kLikePerChar * pattern.size();
  Predicate p = StrTest(
      std::move(col),
      [pat = std::move(pattern)](std::string_view s) {
        return LikeMatch(s, pat);
      },
      cost);
  p.str_hint_ = StrHint::kLike;
  return p;
}

Predicate Predicate::NotLike(std::string col, std::string pattern) {
  const double cost = 4.0 + 2.0 * cost::kLikePerChar * pattern.size();
  Predicate p = StrTest(
      std::move(col),
      [pat = std::move(pattern)](std::string_view s) {
        return !LikeMatch(s, pat);
      },
      cost);
  p.str_hint_ = StrHint::kNotLike;
  return p;
}

Predicate Predicate::StrTest(std::string col,
                             std::function<bool(std::string_view)> test,
                             double cost_per_value) {
  Predicate p;
  p.kind_ = Kind::kStrPred;
  p.col_ = std::move(col);
  p.str_test_ = std::move(test);
  p.str_cost_ = cost_per_value;
  p.str_hint_ = StrHint::kGeneric;
  return p;
}

namespace {

// Compares with the operator fixed at compile time, so a kernel loop holds
// no per-row switch. C++ semantics: with a NaN operand kNe is true and
// every other operator false.
template <CmpOp kOp, typename T>
bool Compare(T a, T b) {
  if constexpr (kOp == CmpOp::kEq) {
    return a == b;
  } else if constexpr (kOp == CmpOp::kNe) {
    return a != b;
  } else if constexpr (kOp == CmpOp::kLt) {
    return a < b;
  } else if constexpr (kOp == CmpOp::kLe) {
    return a <= b;
  } else if constexpr (kOp == CmpOp::kGt) {
    return a > b;
  } else {
    return a >= b;
  }
}

template <CmpOp kOp>
using OpTag = std::integral_constant<CmpOp, kOp>;

// Resolves a runtime operator once: calls f(OpTag<op>{}), so f's body is
// instantiated once per operator.
template <typename F>
void WithOp(CmpOp op, const F& f) {
  switch (op) {
    case CmpOp::kEq:
      return f(OpTag<CmpOp::kEq>{});
    case CmpOp::kNe:
      return f(OpTag<CmpOp::kNe>{});
    case CmpOp::kLt:
      return f(OpTag<CmpOp::kLt>{});
    case CmpOp::kLe:
      return f(OpTag<CmpOp::kLe>{});
    case CmpOp::kGt:
      return f(OpTag<CmpOp::kGt>{});
    case CmpOp::kGe:
      return f(OpTag<CmpOp::kGe>{});
  }
}

// Branch-free selection over positions [begin, end) of the candidate list
// (or of the rows themselves when `candidates` is null): every row id is
// written and the write position advances by the test result. `out` has
// room for end - begin ids. Returns the number selected.
template <typename Test>
int64_t SelectRange(const int32_t* candidates, int64_t begin, int64_t end,
                    const Test& test, int32_t* out) {
  int64_t w = 0;
  if (candidates != nullptr) {
    for (int64_t k = begin; k < end; ++k) {
      const int32_t row = candidates[k];
      out[w] = row;
      w += test(row);
    }
  } else {
    for (int64_t row = begin; row < end; ++row) {
      out[w] = static_cast<int32_t>(row);
      w += test(row);
    }
  }
  return w;
}

// The rows of `candidates` (or of [0, n) when null) that pass `test`, in
// ascending order. Morsels select into their own slice of one buffer
// pre-sized to the candidate count, and the slices are then compacted in
// morsel order (a slice already in place, such as the first, is not
// moved): the result is the same SelVec at every thread count.
template <typename Test>
SelVec Select(const SelVec* candidates, int64_t n, int threads,
              const Test& test) {
  const int32_t* cand = candidates != nullptr ? candidates->data() : nullptr;
  const auto buf = std::make_unique_for_overwrite<int32_t[]>(n);
  struct Part {
    int64_t begin = 0;
    int64_t count = 0;
  };
  std::vector<Part> parts(NumMorsels(n, threads));
  RunMorsels(n, threads, [&](const parallel::Morsel& m) {
    parts[m.index] = {m.begin, SelectRange(cand, m.begin, m.end, test,
                                           buf.get() + m.begin)};
  });
  int64_t total = 0;
  for (const Part& part : parts) {
    if (part.begin != total) {
      std::memmove(buf.get() + total, buf.get() + part.begin,
                   static_cast<size_t>(part.count) * sizeof(int32_t));
    }
    total += part.count;
  }
  return SelVec(buf.get(), buf.get() + total);
}

}  // namespace

// Internal helper with access to Predicate fields.
class FilterRunner {
 public:
  // The rows of [candidates or 0..rows) that satisfy `p`.
  static SelVec Apply(const ColumnSource& src, const Predicate& p,
                      const SelVec* candidates, QueryStats* stats) {
    const storage::Column& col = src.column(p.col_);
    const int64_t n =
        candidates != nullptr ? static_cast<int64_t>(candidates->size())
                              : src.rows();
    const int width = storage::TypeWidth(col.type());

    OpStats op;
    op.op = "filter(" + p.col_ + ")";
    op.rows_in = static_cast<double>(n);
    // Predicted before running; the estimate is observational only, so the
    // filter below is byte-for-byte the seed path either way.
    if (const CardinalityEstimator* est =
            CurrentExecOptions().cardinality_estimator) {
      op.est_rows = est->EstimateFilterRows(src, p, n);
    }
    // Candidate-list passes read scattered positions, but at cache-line
    // granularity even moderate selectivity touches most of the column:
    // traffic = rows * width * (1 - (1 - s)^(values per 64B line)).
    double touched = static_cast<double>(n) * width;
    if (candidates != nullptr && src.rows() > 0) {
      const double sel_frac =
          static_cast<double>(n) / static_cast<double>(src.rows());
      const double line_frac =
          1.0 - std::pow(1.0 - std::min(1.0, sel_frac), 64.0 / width);
      touched = static_cast<double>(src.rows()) * width * line_frac;
    }
    op.seq_bytes = touched;
    op.compute_ops = static_cast<double>(n) * cost::kCompare;

    // One morsel at one planned thread; otherwise morsel-parallel.
    // The predicate kind, operator and column type are resolved here, once;
    // each case below instantiates its own selection loop.
    const int threads = PlannedThreads(n);
    auto select = [&](const auto& test) {
      return Select(candidates, n, threads, test);
    };
    SelVec out;
    auto compare = [&](const auto* d, auto v) {
      WithOp(p.op_, [&](auto o) {
        out = select([d, v](int64_t r) {
          return Compare<decltype(o)::value>(d[r], v);
        });
      });
    };
    switch (p.kind_) {
      case Predicate::Kind::kCmpI32:
        compare(col.I32Data(), static_cast<int32_t>(p.i64_));
        break;
      case Predicate::Kind::kCmpI64:
        compare(col.I64Data(), p.i64_);
        break;
      case Predicate::Kind::kCmpF64:
        compare(col.F64Data(), p.f64_);
        break;
      case Predicate::Kind::kBetweenI32: {
        // lo <= x <= hi as one unsigned compare: x - lo <= hi - lo modulo
        // 2^32. An empty range (lo > hi) selects nothing.
        const int32_t* d = col.I32Data();
        const auto lo = static_cast<uint32_t>(p.i64_);
        const uint32_t span = static_cast<uint32_t>(p.i64_hi_) - lo;
        if (p.i64_ <= p.i64_hi_) {
          out = select([d, lo, span](int64_t r) {
            return static_cast<uint32_t>(d[r]) - lo <= span;
          });
        }
        break;
      }
      case Predicate::Kind::kBetweenF64: {
        const double* d = col.F64Data();
        const double lo = p.f64_;
        const double hi = p.f64_hi_;
        out = select([d, lo, hi](int64_t r) {
          return (d[r] >= lo) & (d[r] <= hi);
        });
        break;
      }
      case Predicate::Kind::kInI32: {
        const int32_t* d = col.I32Data();
        const auto& vals = p.in_values_;
        op.compute_ops = static_cast<double>(n) * cost::kCompare * 2;
        out = select([d, &vals](int64_t r) {
          return std::binary_search(vals.begin(), vals.end(), d[r]);
        });
        break;
      }
      case Predicate::Kind::kStrPred: {
        // Evaluate the test once per dictionary entry (over dictionary
        // morsels when the dictionary is large), then filter codes.
        const storage::Dictionary& dict = *col.dict();
        const int64_t dict_n = dict.size();
        std::vector<uint8_t> match(dict_n);
        std::atomic<int64_t> dict_bytes{0};
        RunMorsels(dict_n, PlannedThreads(dict_n),
                   [&](const parallel::Morsel& mo) {
                     int64_t bytes = 0;
                     for (int64_t c = mo.begin; c < mo.end; ++c) {
                       const std::string_view v =
                           dict.ValueAt(static_cast<int32_t>(c));
                       match[c] = p.str_test_(v) ? 1 : 0;
                       bytes += static_cast<int64_t>(v.size());
                     }
                     dict_bytes.fetch_add(bytes, std::memory_order_relaxed);
                   });
        op.compute_ops = static_cast<double>(dict_n) * p.str_cost_ +
                         static_cast<double>(n) * cost::kCompare;
        op.seq_bytes += static_cast<double>(dict_bytes.load()) +
                        static_cast<double>(dict_n);
        const int32_t* d = col.I32Data();
        const uint8_t* m = match.data();
        out = select([d, m](int64_t r) { return m[d[r]] != 0; });
        break;
      }
    }

    op.output_bytes = static_cast<double>(out.size()) * sizeof(int32_t);
    op.seq_bytes += op.output_bytes;
    op.rows_out = static_cast<double>(out.size());
    if (stats != nullptr) stats->Add(std::move(op));
    return out;
  }
};

namespace {

// Records that a scan of a base-table source reads column `name` whole.
// String columns carry their dictionary into the working set (the codes
// are 4 bytes, but evaluating a predicate touches the values).
void TouchBaseColumn(const ColumnSource& src, const std::string& name,
                     QueryStats* stats) {
  if (stats == nullptr || src.table() == nullptr) return;
  const storage::Column& col = src.column(name);
  const double dict_bytes =
      col.dict() != nullptr ? col.dict()->MemoryBytes() : 0.0;
  stats->TouchBaseColumn(
      src.table()->name() + "." + name,
      static_cast<double>(src.rows()) * storage::TypeWidth(col.type()) +
          dict_bytes);
}

// The counters of gathering `n` ascending rows of `src` into a fresh
// column. A borrowed whole-table scan records them too, so the model
// charges it the copy a column-at-a-time engine makes.
void AddGatherStats(const storage::Column& src, int64_t n, QueryStats* stats) {
  if (stats == nullptr) return;
  const int width = storage::TypeWidth(src.type());
  OpStats op;
  op.op = "gather";
  op.compute_ops = static_cast<double>(n) * cost::kGather;
  // A gather reads the selection vector sequentially and the source
  // column at cache-line granularity (candidate lists are ascending, so
  // the traffic is sequential over the touched lines).
  double src_touched = static_cast<double>(n) * width;
  if (src.size() > 0) {
    const double sel_frac =
        static_cast<double>(n) / static_cast<double>(src.size());
    const double line_frac =
        1.0 - std::pow(1.0 - std::min(1.0, sel_frac), 64.0 / width);
    src_touched = static_cast<double>(src.size()) * width * line_frac;
  }
  op.seq_bytes =
      static_cast<double>(n) * (sizeof(int32_t) + width) + src_touched;
  op.output_bytes = static_cast<double>(n) * width;
  op.rows_in = static_cast<double>(n);
  op.rows_out = static_cast<double>(n);
  if (CurrentExecOptions().cardinality_estimator != nullptr) {
    op.est_rows = static_cast<double>(n);  // cardinality-preserving
  }
  stats->Add(std::move(op));
  stats->TrackAlloc(static_cast<double>(n) * width);
}

}  // namespace

SelVec Filter(const ColumnSource& src, const std::vector<Predicate>& preds,
              QueryStats* stats, const SelVec* base) {
  WIMPI_CHECK(!preds.empty());
  obs::OpScope scope("Filter",
                     base != nullptr ? static_cast<int64_t>(base->size())
                                     : src.rows());
  for (const auto& p : preds) TouchBaseColumn(src, p.column_name(), stats);
  SelVec current;
  const SelVec* input = base;
  for (const Predicate& p : preds) {
    current = FilterRunner::Apply(src, p, input, stats);
    input = &current;
  }
  scope.set_rows_out(static_cast<int64_t>(current.size()));
  return current;
}

SelVec FilterColCmpCol(const ColumnSource& src, const std::string& a,
                       CmpOp op, const std::string& b, QueryStats* stats,
                       const SelVec* base) {
  const storage::Column& ca = src.column(a);
  const storage::Column& cb = src.column(b);
  WIMPI_CHECK(ca.type() != storage::DataType::kString &&
              cb.type() != storage::DataType::kString &&
              (ca.type() == cb.type() ||
               (storage::TypeWidth(ca.type()) == 4 &&
                storage::TypeWidth(cb.type()) == 4)))
      << "FilterColCmpCol type mismatch";
  const int64_t n = base != nullptr ? static_cast<int64_t>(base->size())
                                    : src.rows();
  obs::OpScope scope("FilterColCmpCol", n);
  const int threads = PlannedThreads(n);
  SelVec out;
  // One selection loop per (width class, operator).
  auto run = [&](const auto* da, const auto* db) {
    WithOp(op, [&](auto o) {
      out = Select(base, n, threads, [da, db](int64_t r) {
        return Compare<decltype(o)::value>(da[r], db[r]);
      });
    });
  };
  switch (ca.type()) {
    case storage::DataType::kInt64:
      run(ca.I64Data(), cb.I64Data());
      break;
    case storage::DataType::kFloat64:
      run(ca.F64Data(), cb.F64Data());
      break;
    default:
      run(ca.I32Data(), cb.I32Data());
      break;
  }
  if (stats != nullptr) {
    OpStats op_stats;
    op_stats.op = "filter(" + a + " vs " + b + ")";
    op_stats.compute_ops = static_cast<double>(n) * cost::kCompare;
    op_stats.seq_bytes = static_cast<double>(n) * 8 +
                         static_cast<double>(out.size()) * sizeof(int32_t);
    op_stats.output_bytes = static_cast<double>(out.size()) * sizeof(int32_t);
    op_stats.rows_in = static_cast<double>(n);
    op_stats.rows_out = static_cast<double>(out.size());
    if (const CardinalityEstimator* est =
            CurrentExecOptions().cardinality_estimator) {
      op_stats.est_rows = est->EstimateColCmpRows(src, a, op, b, n);
    }
    stats->Add(std::move(op_stats));
  }
  scope.set_rows_out(static_cast<int64_t>(out.size()));
  return out;
}

SelVec UnionSel(const std::vector<const SelVec*>& sels, QueryStats* stats) {
  SelVec out;
  size_t total = 0;
  for (const SelVec* s : sels) total += s->size();
  obs::OpScope scope("UnionSel", static_cast<int64_t>(total));
  out.reserve(total);
  for (const SelVec* s : sels) out.insert(out.end(), s->begin(), s->end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (stats != nullptr) {
    OpStats op;
    op.op = "union_sel";
    op.compute_ops = static_cast<double>(total) * cost::kSortPerCmp *
                     (total > 1 ? std::max(1.0, std::log2(double(total))) : 1);
    op.seq_bytes = static_cast<double>(total + out.size()) * sizeof(int32_t);
    op.output_bytes = static_cast<double>(out.size()) * sizeof(int32_t);
    op.rows_in = static_cast<double>(total);
    op.rows_out = static_cast<double>(out.size());
    stats->Add(std::move(op));
  }
  scope.set_rows_out(static_cast<int64_t>(out.size()));
  return out;
}

std::unique_ptr<storage::Column> Gather(const storage::Column& src,
                                        const SelVec& sel,
                                        QueryStats* stats) {
  auto out = src.dict() != nullptr
                 ? std::make_unique<storage::Column>(src.type(), src.dict())
                 : std::make_unique<storage::Column>(src.type());
  // A gathered column holds a subset of the source's values, so it keeps
  // the source's statistics identity (DESIGN.md §13).
  out->set_origin(src.origin());
  const int64_t n = static_cast<int64_t>(sel.size());
  obs::OpScope scope("Gather", n);
  scope.set_rows_out(n);
  const int threads = PlannedThreads(n);
  // The output is pre-sized and filled through raw pointers; morsels write
  // disjoint ranges of it.
  auto fill = [&](const auto* d, auto& v) {
    v.resize(n);
    auto* o = v.data();
    const int32_t* s = sel.data();
    RunMorsels(n, threads, [=](const parallel::Morsel& m) {
      for (int64_t k = m.begin; k < m.end; ++k) o[k] = d[s[k]];
    });
  };
  switch (src.type()) {
    case storage::DataType::kInt64:
      fill(src.I64Data(), out->MutableI64());
      break;
    case storage::DataType::kFloat64:
      fill(src.F64Data(), out->MutableF64());
      break;
    default:
      fill(src.I32Data(), out->MutableI32());
      break;
  }
  AddGatherStats(src, n, stats);
  return out;
}

Relation GatherColumns(
    const ColumnSource& src,
    const std::vector<std::pair<std::string, std::string>>& cols,
    const SelVec& sel, QueryStats* stats) {
  Relation out;
  obs::OpScope scope("GatherColumns", static_cast<int64_t>(sel.size()));
  scope.set_rows_out(static_cast<int64_t>(sel.size()));
  for (const auto& [in_name, out_name] : cols) {
    TouchBaseColumn(src, in_name, stats);
    out.AddColumn(out_name, Gather(src.column(in_name), sel, stats));
  }
  return out;
}

Relation ScanAll(const storage::Table& t, const std::vector<std::string>& cols,
                 QueryStats* stats) {
  const ColumnSource src(t);
  const int64_t n = t.num_rows();
  Relation out;
  obs::OpScope scope("GatherColumns", n);
  scope.set_rows_out(n);
  for (const std::string& name : cols) {
    TouchBaseColumn(src, name, stats);
    const storage::Column& col = t.column(name);
    obs::OpScope gather_scope("Gather", n);
    gather_scope.set_rows_out(n);
    AddGatherStats(col, n, stats);
    out.BorrowColumn(name, col);
  }
  return out;
}

std::unique_ptr<storage::Column> GatherWithDefault(
    const storage::Column& src, const std::vector<int32_t>& idx, double def,
    QueryStats* stats) {
  auto out = std::make_unique<storage::Column>(src.type());
  // Outer-join fill adds at most one value (`def`) outside the source's
  // domain; close enough for estimation to keep the origin.
  out->set_origin(src.origin());
  const int64_t n = static_cast<int64_t>(idx.size());
  obs::OpScope scope("GatherWithDefault", n);
  scope.set_rows_out(n);
  const int threads = PlannedThreads(n);
  auto fill = [&](const auto* d, auto& v) {
    using T = std::decay_t<decltype(v[0])>;
    const T dv = static_cast<T>(def);
    v.resize(n);
    T* o = v.data();
    const int32_t* s = idx.data();
    RunMorsels(n, threads, [=](const parallel::Morsel& m) {
      for (int64_t k = m.begin; k < m.end; ++k) {
        const int32_t r = s[k];
        o[k] = r < 0 ? dv : d[r];
      }
    });
  };
  switch (src.type()) {
    case storage::DataType::kInt64:
      fill(src.I64Data(), out->MutableI64());
      break;
    case storage::DataType::kFloat64:
      fill(src.F64Data(), out->MutableF64());
      break;
    default:
      fill(src.I32Data(), out->MutableI32());
      break;
  }
  if (stats != nullptr) {
    const int width = storage::TypeWidth(src.type());
    OpStats op;
    op.op = "gather_default";
    op.compute_ops = static_cast<double>(n) * cost::kGather;
    op.seq_bytes = static_cast<double>(n) * (sizeof(int32_t) + 2 * width);
    op.output_bytes = static_cast<double>(n) * width;
    op.rows_in = static_cast<double>(n);
    op.rows_out = static_cast<double>(n);
    if (CurrentExecOptions().cardinality_estimator != nullptr) {
      op.est_rows = static_cast<double>(n);  // cardinality-preserving
    }
    stats->Add(std::move(op));
    stats->TrackAlloc(static_cast<double>(n) * width);
  }
  return out;
}

}  // namespace wimpi::exec
