#include "exec/expr.h"

#include "common/date.h"
#include "common/logging.h"
#include "exec/morsel_exec.h"
#include "obs/profiler.h"

namespace wimpi::exec {
namespace {

using storage::Column;
using storage::DataType;

// Fills out[i] = f(i) for i in [0, n), morsel-parallel when the ambient
// options allow it. Element-wise maps have no cross-row state, so the
// result is bit-identical at every thread count.
template <typename T, typename F>
void FillRows(std::vector<T>& out_vec, int64_t n, F f) {
  T* out = out_vec.data();
  RunMorsels(n, PlannedThreads(n), [&](const parallel::Morsel& m) {
    for (int64_t i = m.begin; i < m.end; ++i) out[i] = f(i);
  });
}

// Cardinality capture for element-wise maps: one output row per input
// row, so the estimate (when an estimator is armed) is exact.
void TagMapRows(OpStats& op, int64_t n) {
  op.rows_in = static_cast<double>(n);
  op.rows_out = static_cast<double>(n);
  if (CurrentExecOptions().cardinality_estimator != nullptr) {
    op.est_rows = static_cast<double>(n);
  }
}

void RecordUnary(const char* name, int64_t n, int in_width, int out_width,
                 QueryStats* stats) {
  if (stats == nullptr) return;
  OpStats op;
  op.op = name;
  op.compute_ops = static_cast<double>(n) * cost::kArith;
  op.seq_bytes = static_cast<double>(n) * (in_width + out_width);
  op.output_bytes = static_cast<double>(n) * out_width;
  TagMapRows(op, n);
  stats->Add(std::move(op));
  stats->TrackAlloc(static_cast<double>(n) * out_width);
}

void RecordBinary(const char* name, int64_t n, QueryStats* stats) {
  if (stats == nullptr) return;
  OpStats op;
  op.op = name;
  op.compute_ops = static_cast<double>(n) * cost::kArith;
  op.seq_bytes = static_cast<double>(n) * 24;  // two inputs + one output
  op.output_bytes = static_cast<double>(n) * 8;
  TagMapRows(op, n);
  stats->Add(std::move(op));
  stats->TrackAlloc(static_cast<double>(n) * 8);
}

template <typename F>
std::unique_ptr<Column> BinaryOp(const char* name, const Column& a,
                                 const Column& b, QueryStats* stats, F f) {
  WIMPI_CHECK_EQ(a.size(), b.size());
  const int64_t n = a.size();
  obs::OpScope scope(name, n);
  scope.set_rows_out(n);
  auto out = std::make_unique<Column>(DataType::kFloat64);
  auto& v = out->MutableF64();
  v.resize(n);
  const double* pa = a.F64Data();
  const double* pb = b.F64Data();
  FillRows(v, n, [&](int64_t i) { return f(pa[i], pb[i]); });
  RecordBinary(name, n, stats);
  return out;
}

template <typename F>
std::unique_ptr<Column> UnaryF64Op(const char* name, const Column& a,
                                   QueryStats* stats, F f) {
  const int64_t n = a.size();
  obs::OpScope scope(name, n);
  scope.set_rows_out(n);
  auto out = std::make_unique<Column>(DataType::kFloat64);
  auto& v = out->MutableF64();
  v.resize(n);
  const double* pa = a.F64Data();
  FillRows(v, n, [&](int64_t i) { return f(pa[i]); });
  RecordUnary(name, n, 8, 8, stats);
  return out;
}

}  // namespace

std::unique_ptr<Column> MulF64(const Column& a, const Column& b,
                               QueryStats* stats) {
  return BinaryOp("mul_f64", a, b, stats,
                  [](double x, double y) { return x * y; });
}

std::unique_ptr<Column> AddF64(const Column& a, const Column& b,
                               QueryStats* stats) {
  return BinaryOp("add_f64", a, b, stats,
                  [](double x, double y) { return x + y; });
}

std::unique_ptr<Column> SubF64(const Column& a, const Column& b,
                               QueryStats* stats) {
  return BinaryOp("sub_f64", a, b, stats,
                  [](double x, double y) { return x - y; });
}

std::unique_ptr<Column> ConstMinusF64(double c, const Column& a,
                                      QueryStats* stats) {
  return UnaryF64Op("const_minus_f64", a, stats,
                    [c](double x) { return c - x; });
}

std::unique_ptr<Column> ConstPlusF64(double c, const Column& a,
                                     QueryStats* stats) {
  return UnaryF64Op("const_plus_f64", a, stats,
                    [c](double x) { return c + x; });
}

std::unique_ptr<Column> MulConstF64(const Column& a, double c,
                                    QueryStats* stats) {
  return UnaryF64Op("mul_const_f64", a, stats,
                    [c](double x) { return x * c; });
}

std::unique_ptr<Column> ExtractYear(const Column& dates, QueryStats* stats) {
  const int64_t n = dates.size();
  obs::OpScope scope("extract_year", n);
  scope.set_rows_out(n);
  auto out = std::make_unique<Column>(DataType::kInt32);
  auto& v = out->MutableI32();
  v.resize(n);
  const int32_t* d = dates.I32Data();
  FillRows(v, n, [&](int64_t i) { return DateYear(d[i]); });
  if (stats != nullptr) {
    OpStats op;
    op.op = "extract_year";
    op.compute_ops = static_cast<double>(n) * cost::kArith * 4;
    op.seq_bytes = static_cast<double>(n) * 8;
    op.output_bytes = static_cast<double>(n) * 4;
    TagMapRows(op, n);
    stats->Add(std::move(op));
    stats->TrackAlloc(static_cast<double>(n) * 4);
  }
  return out;
}

std::vector<uint8_t> StrMatchMask(
    const Column& col, const std::function<bool(std::string_view)>& test,
    double cost_per_value, QueryStats* stats) {
  obs::OpScope scope("str_match_mask", col.size());
  scope.set_rows_out(col.size());
  const auto& dict = *col.dict();
  std::vector<uint8_t> code_match(dict.size());
  double dict_bytes = 0;
  for (int32_t c = 0; c < dict.size(); ++c) {
    const std::string_view v = dict.ValueAt(c);
    code_match[c] = test(v) ? 1 : 0;
    dict_bytes += static_cast<double>(v.size());
  }
  const int64_t n = col.size();
  std::vector<uint8_t> mask(n);
  const int32_t* codes = col.I32Data();
  FillRows(mask, n, [&](int64_t i) { return code_match[codes[i]]; });
  if (stats != nullptr) {
    OpStats op;
    op.op = "str_match_mask";
    op.compute_ops = static_cast<double>(dict.size()) * cost_per_value +
                     static_cast<double>(n) * cost::kCompare;
    op.seq_bytes = dict_bytes + static_cast<double>(n) * 5;
    op.output_bytes = static_cast<double>(n);
    TagMapRows(op, n);
    stats->Add(std::move(op));
  }
  return mask;
}

std::vector<uint8_t> I32EqMask(const Column& col, int32_t value,
                               QueryStats* stats) {
  const int64_t n = col.size();
  obs::OpScope scope("i32_eq_mask", n);
  scope.set_rows_out(n);
  std::vector<uint8_t> mask(n);
  const int32_t* d = col.I32Data();
  FillRows(mask, n,
           [&](int64_t i) -> uint8_t { return d[i] == value ? 1 : 0; });
  if (stats != nullptr) {
    OpStats op;
    op.op = "i32_eq_mask";
    op.compute_ops = static_cast<double>(n) * cost::kCompare;
    op.seq_bytes = static_cast<double>(n) * 5;
    op.output_bytes = static_cast<double>(n);
    TagMapRows(op, n);
    stats->Add(std::move(op));
  }
  return mask;
}

std::unique_ptr<Column> MaskedF64(const Column& a,
                                  const std::vector<uint8_t>& mask,
                                  QueryStats* stats) {
  WIMPI_CHECK_EQ(a.size(), static_cast<int64_t>(mask.size()));
  const int64_t n = a.size();
  auto out = std::make_unique<Column>(DataType::kFloat64);
  auto& v = out->MutableF64();
  v.resize(n);
  const double* pa = a.F64Data();
  FillRows(v, n, [&](int64_t i) { return mask[i] != 0 ? pa[i] : 0.0; });
  RecordBinary("masked_f64", n, stats);
  return out;
}

std::unique_ptr<Column> DivF64(const Column& a, const Column& b,
                               QueryStats* stats) {
  return BinaryOp("div_f64", a, b, stats,
                  [](double x, double y) { return y == 0 ? 0.0 : x / y; });
}

std::unique_ptr<Column> CastF64(const Column& a, QueryStats* stats) {
  const int64_t n = a.size();
  obs::OpScope scope("cast_f64", n);
  scope.set_rows_out(n);
  auto out = std::make_unique<Column>(DataType::kFloat64);
  auto& v = out->MutableF64();
  v.resize(n);
  switch (a.type()) {
    case DataType::kInt64: {
      const int64_t* d = a.I64Data();
      FillRows(v, n, [&](int64_t i) { return static_cast<double>(d[i]); });
      break;
    }
    case DataType::kFloat64: {
      const double* d = a.F64Data();
      FillRows(v, n, [&](int64_t i) { return d[i]; });
      break;
    }
    default: {
      const int32_t* d = a.I32Data();
      FillRows(v, n, [&](int64_t i) { return static_cast<double>(d[i]); });
      break;
    }
  }
  RecordUnary("cast_f64", n, storage::TypeWidth(a.type()), 8, stats);
  return out;
}

}  // namespace wimpi::exec
