// The reference interpreter's chained hash aggregation: a row at a time,
// with a switch on the column type for every hash, compare and update, and
// keys compared at each group's first row. Independent of the engine's
// batched, typed kernels (exec/aggregate.cc), but built on the same table
// contract (hash, bucket count, head insertion, first-appearance group
// order), so the two agree on groups, every result bit and chain_steps.
#include <algorithm>
#include <bit>
#include <limits>

#include "common/hash.h"
#include "common/logging.h"
#include "reference.h"

namespace wimpi::tpch_ref {
namespace {

using exec::AggFn;
using storage::Column;
using storage::DataType;

uint64_t RefValueHash(const Column& col, int64_t row) {
  switch (col.type()) {
    case DataType::kInt64:
      return HashInt64(static_cast<uint64_t>(col.I64Data()[row]));
    case DataType::kFloat64: {
      double d = col.F64Data()[row];
      if (d == 0) d = 0;  // -0.0 == +0.0: one hash for both
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return HashInt64(bits);
    }
    default:
      return HashInt64(
          static_cast<uint64_t>(static_cast<uint32_t>(col.I32Data()[row])));
  }
}

bool RefValueEq(const Column& c, int64_t a, int64_t b) {
  switch (c.type()) {
    case DataType::kInt64:
      return c.I64Data()[a] == c.I64Data()[b];
    case DataType::kFloat64:
      return c.F64Data()[a] == c.F64Data()[b];
    default:
      return c.I32Data()[a] == c.I32Data()[b];
  }
}

bool IsFloat(const Column* c) { return c->type() == DataType::kFloat64; }

int64_t AsI64(const Column& c, int64_t row) {
  return c.type() == DataType::kInt64 ? c.I64Data()[row]
                                      : static_cast<int64_t>(c.I32Data()[row]);
}

double AsF64(const Column& c, int64_t row) {
  switch (c.type()) {
    case DataType::kInt64:
      return static_cast<double>(c.I64Data()[row]);
    case DataType::kFloat64:
      return c.F64Data()[row];
    default:
      return static_cast<double>(c.I32Data()[row]);
  }
}

void AddGroup(RefAggState& s) {
  switch (s.fn) {
    case AggFn::kSum:
      s.f64.push_back(0);
      break;
    case AggFn::kAvg:
      s.f64.push_back(0);
      s.i64.push_back(0);
      break;
    case AggFn::kMin:
      if (IsFloat(s.in)) {
        s.f64.push_back(std::numeric_limits<double>::infinity());
      } else {
        s.i64.push_back(s.in->type() == DataType::kInt64
                            ? std::numeric_limits<int64_t>::max()
                            : std::numeric_limits<int32_t>::max());
      }
      break;
    case AggFn::kMax:
      if (IsFloat(s.in)) {
        s.f64.push_back(-std::numeric_limits<double>::infinity());
      } else {
        s.i64.push_back(s.in->type() == DataType::kInt64
                            ? std::numeric_limits<int64_t>::lowest()
                            : std::numeric_limits<int32_t>::lowest());
      }
      break;
    case AggFn::kSumI64:
    case AggFn::kCount:
    case AggFn::kCountStar:
      s.i64.push_back(0);
      break;
  }
}

void Update(RefAggState& s, int32_t g, int64_t row) {
  switch (s.fn) {
    case AggFn::kSum:
      s.f64[g] += AsF64(*s.in, row);
      break;
    case AggFn::kAvg:
      s.f64[g] += AsF64(*s.in, row);
      ++s.i64[g];
      break;
    case AggFn::kMin:
      if (IsFloat(s.in)) {
        s.f64[g] = std::min(s.f64[g], s.in->F64Data()[row]);
      } else {
        s.i64[g] = std::min(s.i64[g], AsI64(*s.in, row));
      }
      break;
    case AggFn::kMax:
      if (IsFloat(s.in)) {
        s.f64[g] = std::max(s.f64[g], s.in->F64Data()[row]);
      } else {
        s.i64[g] = std::max(s.i64[g], AsI64(*s.in, row));
      }
      break;
    case AggFn::kSumI64:
      s.i64[g] += AsI64(*s.in, row);
      break;
    case AggFn::kCount:
    case AggFn::kCountStar:
      ++s.i64[g];
      break;
  }
}

// Folds group pg of `part` into group g of `s` (the partial's merge
// function: sums and counts add, min/max take the min/max).
void Combine(RefAggState& s, int32_t g, const RefAggState& part, int64_t pg) {
  switch (s.fn) {
    case AggFn::kMin:
      if (IsFloat(s.in)) {
        s.f64[g] = std::min(s.f64[g], part.f64[pg]);
      } else {
        s.i64[g] = std::min(s.i64[g], part.i64[pg]);
      }
      break;
    case AggFn::kMax:
      if (IsFloat(s.in)) {
        s.f64[g] = std::max(s.f64[g], part.f64[pg]);
      } else {
        s.i64[g] = std::max(s.i64[g], part.i64[pg]);
      }
      break;
    default:
      if (!s.f64.empty()) s.f64[g] += part.f64[pg];
      if (!s.i64.empty()) s.i64[g] += part.i64[pg];
      break;
  }
}

RefGroups Empty(const std::vector<RefAggInput>& aggs) {
  RefGroups out;
  for (const RefAggInput& a : aggs) out.states.push_back({a.fn, a.in, {}, {}});
  return out;
}

// The chained table over a sequence of rows (`rows[i]` is the i-th key's
// source row): returns each key's group, inserting new groups at the
// bucket head and recording their first row.
class RefTable {
 public:
  RefTable(const std::vector<const Column*>& keys, int64_t n, RefGroups* g)
      : keys_(keys),
        head_(std::bit_ceil(
                  static_cast<uint64_t>(std::max<int64_t>(n / 2, 16))),
              -1),
        groups_(g) {}

  // Group of source row `row`; *is_new tells whether it was created.
  int32_t Find(int64_t row, bool* is_new) {
    uint64_t h = RefValueHash(*keys_[0], row);
    for (size_t k = 1; k < keys_.size(); ++k) {
      h = HashCombine(h, RefValueHash(*keys_[k], row));
    }
    const uint64_t b = h & (head_.size() - 1);
    for (int32_t e = head_[b]; e >= 0; e = next_[e]) {
      ++groups_->chain_steps;
      bool eq = true;
      for (const Column* key : keys_) {
        if (!RefValueEq(*key, groups_->group_rep[e], row)) {
          eq = false;
          break;
        }
      }
      if (eq) {
        *is_new = false;
        return e;
      }
    }
    const auto g = static_cast<int32_t>(groups_->group_rep.size());
    groups_->group_rep.push_back(static_cast<int32_t>(row));
    next_.push_back(head_[b]);
    head_[b] = g;
    *is_new = true;
    return g;
  }

 private:
  const std::vector<const Column*>& keys_;
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  RefGroups* groups_;
};

}  // namespace

RefGroups RefAggregateRange(const std::vector<const Column*>& keys,
                            const std::vector<RefAggInput>& aggs,
                            int64_t begin, int64_t end) {
  RefGroups out = Empty(aggs);
  if (keys.empty()) {
    out.group_rep.push_back(static_cast<int32_t>(begin));
    for (auto& s : out.states) AddGroup(s);
    for (int64_t row = begin; row < end; ++row) {
      for (auto& s : out.states) Update(s, 0, row);
    }
    return out;
  }
  RefTable table(keys, end - begin, &out);
  for (int64_t row = begin; row < end; ++row) {
    bool is_new;
    const int32_t g = table.Find(row, &is_new);
    if (is_new) {
      for (auto& s : out.states) AddGroup(s);
    }
    for (auto& s : out.states) Update(s, g, row);
  }
  return out;
}

RefGroups RefMergeChunks(const std::vector<const Column*>& keys,
                         const std::vector<RefAggInput>& aggs,
                         const std::vector<RefGroups>& parts) {
  RefGroups out = Empty(aggs);
  int64_t total = 0;
  for (const RefGroups& p : parts) {
    total += static_cast<int64_t>(p.group_rep.size());
    out.chain_steps += p.chain_steps;
  }
  if (keys.empty()) {
    out.group_rep.push_back(0);
    for (auto& s : out.states) AddGroup(s);
  }
  RefTable table(keys, total, &out);
  for (const RefGroups& p : parts) {
    for (size_t pg = 0; pg < p.group_rep.size(); ++pg) {
      int32_t g = 0;
      if (!keys.empty()) {
        bool is_new;
        g = table.Find(p.group_rep[pg], &is_new);
        if (is_new) {
          for (auto& s : out.states) AddGroup(s);
        }
      }
      for (size_t j = 0; j < out.states.size(); ++j) {
        Combine(out.states[j], g, p.states[j], static_cast<int64_t>(pg));
      }
    }
  }
  return out;
}

}  // namespace wimpi::tpch_ref
