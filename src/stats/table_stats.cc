#include "stats/table_stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/hash.h"
#include "exec/morsel_exec.h"

namespace wimpi::stats {
namespace {

using storage::Column;
using storage::DataType;

// Value hashing matches the join's ValueHash exactly (same bit patterns in,
// same Murmur3 finalizer), so NDV estimates describe the very key
// distribution the hash join will see. Strings hash their dictionary code
// (codes map 1:1 to values within a shared dictionary).
uint64_t ValueHashAt(const Column& col, int64_t row) {
  switch (col.type()) {
    case DataType::kInt64:
      return HashInt64(static_cast<uint64_t>(col.I64Data()[row]));
    case DataType::kFloat64: {
      const double d = col.F64Data()[row];
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return HashInt64(bits);
    }
    default:
      return HashInt64(
          static_cast<uint64_t>(static_cast<uint32_t>(col.I32Data()[row])));
  }
}

double ValueAsF64(const Column& col, int64_t row) {
  switch (col.type()) {
    case DataType::kInt64:
      return static_cast<double>(col.I64Data()[row]);
    case DataType::kFloat64:
      return col.F64Data()[row];
    default:
      return static_cast<double>(col.I32Data()[row]);
  }
}

// Per-chunk partial accumulator. Every merge step below is independent of
// how rows were partitioned: HLL merge is a register max, min/max combine
// is a max/min, width sums are exact int64 adds, and the stride sample
// selects rows by *global* index (r % stride == 0), so concatenating
// shards in chunk order reproduces the sequential sample exactly.
struct Shard {
  explicit Shard(int precision) : hll(precision) {}
  HllSketch hll;
  bool any = false;
  double min = 0;
  double max = 0;
  int64_t width_sum = 0;  // string bytes over scanned rows
  std::vector<double> sample;
};

ColumnStats BuildColumnStats(const Column& col, const std::string& name,
                             int64_t n, const StatsBuildOptions& opts) {
  ColumnStats cs;
  cs.column = name;
  cs.type = col.type();
  cs.row_count = n;
  const bool numeric = cs.numeric();

  const int64_t row_stride = std::max<int64_t>(1, opts.scan_stride);
  const int64_t scanned =
      n == 0 ? 0 : (n + row_stride - 1) / row_stride;
  // Histogram rows are a sub-stride of the scanned rows (a multiple of
  // row_stride), targeting ~sample_target values.
  int64_t hist_stride = row_stride;
  if (opts.sample_target > 0 && scanned > opts.sample_target) {
    hist_stride = row_stride * (scanned / opts.sample_target);
  }
  cs.sample_rows = scanned;
  if (!numeric) {
    cs.avg_width = 0;  // filled from width_sum below
  } else {
    cs.avg_width = storage::TypeWidth(col.type());
  }
  if (n == 0) return cs;

  const int threads = exec::PlannedThreads(n);
  const int64_t chunk_rows = (n + threads - 1) / threads;
  const int num_chunks =
      static_cast<int>((n + chunk_rows - 1) / chunk_rows);
  std::vector<Shard> shards;
  shards.reserve(num_chunks);
  for (int i = 0; i < num_chunks; ++i) shards.emplace_back(opts.hll_precision);

  auto scan = [&](int64_t begin, int64_t end, Shard& sh) {
    // First scanned global index at or after `begin`.
    int64_t r = begin % row_stride == 0
                    ? begin
                    : begin + (row_stride - begin % row_stride);
    const storage::Dictionary* dict =
        col.dict() != nullptr ? col.dict().get() : nullptr;
    const int32_t* codes = numeric ? nullptr : col.I32Data();
    for (; r < end; r += row_stride) {
      sh.hll.AddHash(ValueHashAt(col, r));
      if (numeric) {
        const double v = ValueAsF64(col, r);
        if (!sh.any || v < sh.min) sh.min = v;
        if (!sh.any || v > sh.max) sh.max = v;
        sh.any = true;
        if (r % hist_stride == 0) sh.sample.push_back(v);
      } else {
        sh.width_sum +=
            static_cast<int64_t>(dict->ValueAt(codes[r]).size());
      }
    }
  };

  exec::RunChunks(n, chunk_rows, threads, [&](const parallel::Morsel& m) {
    scan(m.begin, m.end, shards[m.index]);
  });

  // Merge in chunk order.
  Shard merged(opts.hll_precision);
  size_t sample_total = 0;
  for (const Shard& sh : shards) sample_total += sh.sample.size();
  merged.sample.reserve(sample_total);
  for (const Shard& sh : shards) {
    merged.hll.Merge(sh.hll);
    if (sh.any) {
      if (!merged.any || sh.min < merged.min) merged.min = sh.min;
      if (!merged.any || sh.max > merged.max) merged.max = sh.max;
      merged.any = true;
    }
    merged.width_sum += sh.width_sum;
    merged.sample.insert(merged.sample.end(), sh.sample.begin(),
                         sh.sample.end());
  }

  double d = merged.hll.Estimate();
  if (row_stride > 1 && scanned > 0) {
    // Sampled build: a key-like column (nearly every sampled value
    // distinct) extrapolates linearly; a low-NDV column has already shown
    // its whole domain to the sample.
    const double f =
        static_cast<double>(scanned) / static_cast<double>(n);
    if (d >= 0.9 * static_cast<double>(scanned)) d /= f;
  }
  cs.ndv = std::clamp(d, 0.0, static_cast<double>(n));
  if (numeric) {
    cs.min_value = merged.min;
    cs.max_value = merged.max;
    cs.histogram = EquiDepthHistogram::FromSample(std::move(merged.sample),
                                                  opts.histogram_buckets);
  } else if (scanned > 0) {
    cs.avg_width = static_cast<double>(merged.width_sum) /
                   static_cast<double>(scanned);
  }
  return cs;
}

}  // namespace

double ColumnStats::UniformFraction(double v, bool inclusive) const {
  if (max_value <= min_value) {
    // Degenerate (single-point) domain.
    if (v < min_value) return 0;
    if (v > min_value) return 1;
    return inclusive ? 1.0 : 0.0;
  }
  return std::clamp((v - min_value) / (max_value - min_value), 0.0, 1.0);
}

double ColumnStats::EqSelectivity() const {
  if (row_count <= 0) return 0;
  if (ndv <= 1) return 1;
  return std::clamp(1.0 / ndv, 0.0, 1.0);
}

double ColumnStats::EqSelectivityAt(double v) const {
  if (row_count <= 0) return 0;
  if (numeric() && (v < min_value || v > max_value)) return 0;
  // Integral domains: the histogram's point mass at v is exact for heavy
  // hitters the sample resolved; between resolved points fall back to the
  // uniform 1/NDV.
  if (!histogram.empty() && type != storage::DataType::kFloat64) {
    const double mass =
        histogram.FractionAtMost(v) - histogram.FractionBelow(v);
    if (mass > 0) return std::clamp(mass, 0.0, 1.0);
  }
  return EqSelectivity();
}

double ColumnStats::CmpSelectivity(exec::CmpOp op, double v) const {
  if (row_count <= 0) return 0;
  double sel = 0;
  switch (op) {
    case exec::CmpOp::kEq:
      return EqSelectivityAt(v);
    case exec::CmpOp::kNe:
      return std::clamp(1.0 - EqSelectivityAt(v), 0.0, 1.0);
    case exec::CmpOp::kLt:
      sel = histogram.empty() ? UniformFraction(v, false)
                              : histogram.FractionBelow(v);
      break;
    case exec::CmpOp::kLe:
      sel = histogram.empty() ? UniformFraction(v, true)
                              : histogram.FractionAtMost(v);
      break;
    case exec::CmpOp::kGt:
      sel = 1.0 - (histogram.empty() ? UniformFraction(v, true)
                                     : histogram.FractionAtMost(v));
      break;
    case exec::CmpOp::kGe:
      sel = 1.0 - (histogram.empty() ? UniformFraction(v, false)
                                     : histogram.FractionBelow(v));
      break;
  }
  return std::clamp(sel, 0.0, 1.0);
}

double ColumnStats::RangeSelectivity(double lo, double hi) const {
  if (row_count <= 0 || hi < lo) return 0;
  const double below_hi = histogram.empty() ? UniformFraction(hi, true)
                                            : histogram.FractionAtMost(hi);
  const double below_lo = histogram.empty() ? UniformFraction(lo, false)
                                            : histogram.FractionBelow(lo);
  return std::clamp(below_hi - below_lo, 0.0, 1.0);
}

TableStats BuildTableStats(const storage::Table& table,
                           const StatsBuildOptions& opts) {
  TableStats ts;
  ts.table = table.name();
  ts.row_count = table.num_rows();
  const storage::Schema& schema = table.schema();
  for (int i = 0; i < schema.num_fields(); ++i) {
    const std::string& name = schema.field(i).name;
    ts.columns.emplace(
        name, BuildColumnStats(table.column(i), name, ts.row_count, opts));
  }
  return ts;
}

}  // namespace wimpi::stats
