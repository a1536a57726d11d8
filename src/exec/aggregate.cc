#include "exec/aggregate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <type_traits>

#include "common/logging.h"
#include "exec/estimator.h"
#include "exec/hash_keys.h"
#include "exec/morsel_exec.h"
#include "obs/profiler.h"

namespace wimpi::exec {
namespace {

using storage::Column;
using storage::DataType;

// Rows (or merged chunk groups) per batch: the lookup hashes a whole batch
// before it walks the chains, and every state updates once per batch.
constexpr int64_t kBatch = 1024;

// Prefetch distances within a batch: bucket heads first, then the chain
// entry a head points to, once that head is (likely) in cache.
constexpr int64_t kHeadAhead = 16;
constexpr int64_t kEntryAhead = 8;

// Bucket-chained group table over one key reader. head[bucket] holds the
// newest group of the bucket, and entry g holds group g's key inline with
// its chain link, so a chain walk never reads the key columns (a MultiKey's
// inline key is the group's first row, compared against the columns).
// Group ids are first-appearance order; with the same hash, bucket count
// and head insertion as a row-at-a-time table, the chain walks and their
// length (chain_steps) are the same too.
template <typename Reader>
class GroupTable {
 public:
  using Key = typename Reader::Value;
  // 4-byte aligned, so a 64-bit key and its link take 12 bytes, not 16.
  struct __attribute__((packed, aligned(4))) Entry {
    Key key;
    int32_t next;
  };

  GroupTable(const Reader& reader, int64_t rows)
      : reader_(reader),
        head_(std::bit_ceil(
                  static_cast<uint64_t>(std::max<int64_t>(rows / 2, 16))),
              -1),
        mask_(head_.size() - 1) {}

  // Finds or inserts the group of keys[i] for i in [0, n), n <= kBatch, in
  // order, and writes the group ids to gid.
  void Lookup(const Key* keys, int64_t n, int32_t* gid) {
    uint64_t bkt[kBatch];
    for (int64_t i = 0; i < n; ++i) {
      bkt[i] = reader_.HashValue(keys[i]) & mask_;
    }
    int32_t* head = head_.data();
    for (int64_t i = 0; i < std::min(n, kHeadAhead); ++i) {
      __builtin_prefetch(head + bkt[i]);
    }
    const Entry* ent = ent_.data();
    int64_t steps = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (i + kHeadAhead < n) __builtin_prefetch(head + bkt[i + kHeadAhead]);
      if (i + kEntryAhead < n) {
        const int32_t e = head[bkt[i + kEntryAhead]];
        if (e >= 0) __builtin_prefetch(ent + e);
      }
      const Key k = keys[i];
      const uint64_t b = bkt[i];
      int32_t g = head[b];
      for (; g >= 0; g = ent[g].next) {
        ++steps;
        if (reader_.Same(ent[g].key, k)) break;
      }
      if (g < 0) {
        g = static_cast<int32_t>(ent_.size());
        ent_.push_back({k, head[b]});
        ent = ent_.data();
        head[b] = g;
      }
      gid[i] = g;
    }
    chain_steps_ += steps;
  }

  int64_t groups() const { return static_cast<int64_t>(ent_.size()); }
  const std::vector<Entry>& entries() const { return ent_; }
  int64_t chain_steps() const { return chain_steps_; }

 private:
  Reader reader_;
  std::vector<int32_t> head_;
  uint64_t mask_;
  std::vector<Entry> ent_;
  int64_t chain_steps_ = 0;
};

// Running state of one aggregate over all groups, in the accumulator type
// of its function and input: double sums, int64 counts and integer sums,
// and min/max in the input's own type (so int64 extremes stay exact). Its
// kernels are selected once per call by (function, input type); `update`
// folds a batch of rows into their groups and `merge` folds another
// state's groups into this one's.
struct AggState {
  AggFn fn;
  const Column* in = nullptr;  // null for kCountStar
  std::vector<double> f64;     // kSum, kAvg's sum, float64 kMin/kMax
  std::vector<int64_t> i64;    // counts, kSumI64, int64 kMin/kMax
  std::vector<int32_t> i32;    // int32/date kMin/kMax
  // Sizes the state to `groups`, new groups holding the initial value.
  void (*grow)(AggState& s, int64_t groups);
  // Row b0 + i belongs to group gid[i], i in [0, n).
  void (*update)(AggState& s, const int32_t* gid, int64_t b0, int64_t n);
  // Group g0 + i of `part` merges into group gid[i], i in [0, n).
  void (*merge)(AggState& s, const AggState& part, int64_t g0,
                const int32_t* gid, int64_t n);
};

// The accumulator vector of element type T in a (const or mutable) state.
template <typename T, typename State>
auto& Acc(State& s) {
  if constexpr (std::is_same_v<T, double>) {
    return s.f64;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return s.i64;
  } else {
    return s.i32;
  }
}

template <typename T>
const T* Data(const Column& c) {
  if constexpr (std::is_same_v<T, double>) {
    return c.F64Data();
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return c.I64Data();
  } else {
    return c.I32Data();
  }
}

// Accumulator ops: Apply folds an input value into an accumulator. The
// same op folds another accumulator (a sum of sums, a min of mins), except
// that counts merge by Add.
struct Add {
  template <typename A>
  static A Init() {
    return 0;
  }
  template <typename A, typename V>
  static void Apply(A& a, V v) {
    a += static_cast<A>(v);
  }
};

struct Count : Add {
  template <typename A, typename V>
  static void Apply(A& a, V) {
    ++a;
  }
};

struct Min {
  template <typename A>
  static A Init() {
    return std::numeric_limits<A>::has_infinity
               ? std::numeric_limits<A>::infinity()
               : std::numeric_limits<A>::max();
  }
  template <typename A>
  static void Apply(A& a, A v) {
    a = std::min(a, v);
  }
};

struct Max {
  template <typename A>
  static A Init() {
    return std::numeric_limits<A>::has_infinity
               ? -std::numeric_limits<A>::infinity()
               : std::numeric_limits<A>::lowest();
  }
  template <typename A>
  static void Apply(A& a, A v) {
    a = std::max(a, v);
  }
};

// Op over accumulator type A and input type V (void: the input is not
// read, as for kCountStar).
template <typename Op, typename A, typename V>
struct Fold {
  static void Grow(AggState& s, int64_t groups) {
    Acc<A>(s).resize(groups, Op::template Init<A>());
  }
  static void Update(AggState& s, const int32_t* gid, int64_t b0,
                     int64_t n) {
    A* acc = Acc<A>(s).data();
    if constexpr (std::is_void_v<V>) {
      for (int64_t i = 0; i < n; ++i) Op::Apply(acc[gid[i]], 0);
    } else {
      const V* in = Data<V>(*s.in) + b0;
      for (int64_t i = 0; i < n; ++i) Op::Apply(acc[gid[i]], in[i]);
    }
  }
  static void Merge(AggState& s, const AggState& part, int64_t g0,
                    const int32_t* gid, int64_t n) {
    using MergeOp = std::conditional_t<std::is_same_v<Op, Count>, Add, Op>;
    A* acc = Acc<A>(s).data();
    const A* p = Acc<A>(part).data() + g0;
    for (int64_t i = 0; i < n; ++i) MergeOp::Apply(acc[gid[i]], p[i]);
  }
};

// kAvg: a double sum and an int64 count.
template <typename V>
struct AvgFold {
  using Sum = Fold<Add, double, V>;
  using Cnt = Fold<Count, int64_t, void>;
  static void Grow(AggState& s, int64_t groups) {
    Sum::Grow(s, groups);
    Cnt::Grow(s, groups);
  }
  static void Update(AggState& s, const int32_t* gid, int64_t b0,
                     int64_t n) {
    Sum::Update(s, gid, b0, n);
    Cnt::Update(s, gid, b0, n);
  }
  static void Merge(AggState& s, const AggState& part, int64_t g0,
                    const int32_t* gid, int64_t n) {
    Sum::Merge(s, part, g0, gid, n);
    Cnt::Merge(s, part, g0, gid, n);
  }
};

template <typename K>
void Use(AggState& s) {
  s.grow = &K::Grow;
  s.update = &K::Update;
  s.merge = &K::Merge;
}

// Selects K<V> for the input column's value type V.
template <template <typename> typename K>
void UseForInput(AggState& s) {
  switch (s.in->type()) {
    case DataType::kInt64:
      Use<K<int64_t>>(s);
      break;
    case DataType::kFloat64:
      Use<K<double>>(s);
      break;
    default:
      Use<K<int32_t>>(s);
      break;
  }
}

template <typename V>
using SumFold = Fold<Add, double, V>;
template <typename V>
using SumI64Fold = Fold<Add, int64_t, V>;
template <typename V>
using MinFold = Fold<Min, V, V>;
template <typename V>
using MaxFold = Fold<Max, V, V>;

std::vector<AggState> MakeStates(const ColumnSource& src,
                                 const std::vector<AggSpec>& aggs) {
  std::vector<AggState> states(aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    AggState& s = states[i];
    s.fn = aggs[i].fn;
    if (s.fn != AggFn::kCountStar) s.in = &src.column(aggs[i].in);
    switch (s.fn) {
      case AggFn::kSum:
        UseForInput<SumFold>(s);
        break;
      case AggFn::kSumI64:
        WIMPI_CHECK(s.in->type() != DataType::kFloat64)
            << "integer sum over float64";
        UseForInput<SumI64Fold>(s);
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        // String min/max is not supported (dictionary codes are not
        // ordered); TPC-H never needs it.
        WIMPI_CHECK(s.in->type() != DataType::kString)
            << "min/max over strings";
        if (s.fn == AggFn::kMin) {
          UseForInput<MinFold>(s);
        } else {
          UseForInput<MaxFold>(s);
        }
        break;
      case AggFn::kCount:
      case AggFn::kCountStar:
        Use<Fold<Count, int64_t, void>>(s);
        break;
      case AggFn::kAvg:
        UseForInput<AvgFold>(s);
        break;
    }
  }
  return states;
}

// Copies into a new vector: an output column's capacity is its size (the
// cluster model reads Relation::ValueBytes).
template <typename T>
void Emit(const std::vector<T>& v, std::vector<T>& out) {
  out.assign(v.begin(), v.end());
}

std::unique_ptr<Column> Finalize(const AggState& s) {
  switch (s.fn) {
    case AggFn::kSum: {
      auto col = std::make_unique<Column>(DataType::kFloat64);
      Emit(s.f64, col->MutableF64());
      return col;
    }
    case AggFn::kAvg: {
      auto col = std::make_unique<Column>(DataType::kFloat64);
      auto& v = col->MutableF64();
      v.resize(s.f64.size());
      for (size_t g = 0; g < v.size(); ++g) {
        v[g] = s.i64[g] == 0 ? 0 : s.f64[g] / static_cast<double>(s.i64[g]);
      }
      return col;
    }
    case AggFn::kMin:
    case AggFn::kMax: {
      // The input type is preserved, so downstream joins and sorts see
      // the right representation (e.g. min(date) stays a date).
      auto col = std::make_unique<Column>(s.in->type());
      switch (s.in->type()) {
        case DataType::kInt64:
          Emit(s.i64, col->MutableI64());
          break;
        case DataType::kFloat64:
          Emit(s.f64, col->MutableF64());
          break;
        default:
          Emit(s.i32, col->MutableI32());
          break;
      }
      return col;
    }
    case AggFn::kSumI64:
    case AggFn::kCount:
    case AggFn::kCountStar: {
      auto col = std::make_unique<Column>(DataType::kInt64);
      Emit(s.i64, col->MutableI64());
      return col;
    }
  }
  WIMPI_CHECK(false);
  return nullptr;
}

// One row range's groups and states.
template <typename Reader>
struct Grouped {
  GroupTable<Reader> table;
  std::vector<AggState> states;
};

template <typename Reader>
Grouped<Reader> AggregateRange(const Reader& reader, const ColumnSource& src,
                               const std::vector<AggSpec>& aggs,
                               int64_t begin, int64_t end) {
  Grouped<Reader> out{GroupTable<Reader>(reader, end - begin),
                      MakeStates(src, aggs)};
  typename Reader::Value keys[kBatch];
  int32_t gid[kBatch];
  for (int64_t b0 = begin; b0 < end; b0 += kBatch) {
    const int64_t n = std::min(kBatch, end - b0);
    for (int64_t i = 0; i < n; ++i) keys[i] = reader.Load(b0 + i);
    out.table.Lookup(keys, n, gid);
    for (AggState& s : out.states) {
      s.grow(s, out.table.groups());
      s.update(s, gid, b0, n);
    }
  }
  return out;
}

// Folds chunk tables in chunk order into one table over all their groups:
// first appearance across the chunks is first appearance in the whole
// scan, so group order and every group's fold order match the sequential
// run. The table is sized for the total chunk group count, and it sees
// the chunks' keys in the same order a re-aggregation of their
// concatenation would, so its chain_steps are that re-aggregation's.
template <typename Reader>
Grouped<Reader> MergeChunks(const Reader& reader, const ColumnSource& src,
                            const std::vector<AggSpec>& aggs,
                            const std::vector<std::optional<Grouped<Reader>>>&
                                parts) {
  int64_t total = 0;
  for (const auto& p : parts) total += p->table.groups();
  Grouped<Reader> out{GroupTable<Reader>(reader, total),
                      MakeStates(src, aggs)};
  typename Reader::Value keys[kBatch];
  int32_t gid[kBatch];
  for (const auto& p : parts) {
    const auto& ent = p->table.entries();
    const auto groups = static_cast<int64_t>(ent.size());
    for (int64_t g0 = 0; g0 < groups; g0 += kBatch) {
      const int64_t n = std::min(kBatch, groups - g0);
      for (int64_t i = 0; i < n; ++i) keys[i] = ent[g0 + i].key;
      out.table.Lookup(keys, n, gid);
      for (size_t j = 0; j < out.states.size(); ++j) {
        AggState& s = out.states[j];
        s.grow(s, out.table.groups());
        s.merge(s, p->states[j], g0, gid, n);
      }
    }
  }
  return out;
}

// Runs fn(begin, end) over `threads` equal chunks of [0, n) on pool
// workers; the results come back in chunk order.
template <typename Fn>
auto PerChunk(int64_t n, int threads, const Fn& fn) {
  const int64_t chunk_rows = (n + threads - 1) / threads;
  std::vector<std::optional<decltype(fn(0, 0))>> parts(
      (n + chunk_rows - 1) / chunk_rows);
  RunChunks(n, chunk_rows, threads, [&](const parallel::Morsel& m) {
    parts[m.index].emplace(fn(m.begin, m.end));
  });
  return parts;
}

// Sequential below two planned threads; otherwise thread-local chunk
// tables (no shared mutable state) merged in chunk order.
template <typename Reader>
Grouped<Reader> AggregateWith(const Reader& reader, const ColumnSource& src,
                              const std::vector<AggSpec>& aggs, int64_t n,
                              int threads, int64_t* chain_steps) {
  if (threads <= 1) {
    std::optional<Grouped<Reader>> g;
    RunSequential(n,
                  [&] { g.emplace(AggregateRange(reader, src, aggs, 0, n)); });
    *chain_steps = g->table.chain_steps();
    return std::move(*g);
  }
  const auto parts = PerChunk(n, threads, [&](int64_t begin, int64_t end) {
    return AggregateRange(reader, src, aggs, begin, end);
  });
  Grouped<Reader> g = MergeChunks(reader, src, aggs, parts);
  *chain_steps = g.table.chain_steps();
  for (const auto& p : parts) *chain_steps += p->table.chain_steps();
  return g;
}

// Global aggregate: every row in group 0, one group even over no rows.
std::vector<AggState> AggregateAll(const ColumnSource& src,
                                   const std::vector<AggSpec>& aggs,
                                   int64_t n, int threads) {
  static constexpr std::array<int32_t, kBatch> kZeros{};
  auto run = [&](int64_t begin, int64_t end) {
    std::vector<AggState> states = MakeStates(src, aggs);
    for (AggState& s : states) {
      s.grow(s, 1);
      for (int64_t b0 = begin; b0 < end; b0 += kBatch) {
        s.update(s, kZeros.data(), b0, std::min(kBatch, end - b0));
      }
    }
    return states;
  };
  if (threads <= 1) {
    std::vector<AggState> states;
    RunSequential(n, [&] { states = run(0, n); });
    return states;
  }
  const auto parts = PerChunk(n, threads, run);
  std::vector<AggState> states = run(0, 0);
  for (const auto& p : parts) {
    for (size_t j = 0; j < states.size(); ++j) {
      states[j].merge(states[j], (*p)[j], 0, kZeros.data(), 1);
    }
  }
  return states;
}

// A column typed, dictionary-shared and origin-tagged like `src`, holding
// value(key) for each group's inline key.
template <typename Entry, typename Fn>
std::unique_ptr<Column> KeyColumn(const Column& src,
                                  const std::vector<Entry>& ent, Fn value) {
  auto col = src.dict() != nullptr
                 ? std::make_unique<Column>(src.type(), src.dict())
                 : std::make_unique<Column>(src.type());
  col->set_origin(src.origin());
  using T = decltype(value(ent[0].key));
  std::vector<T>& v = [&]() -> std::vector<T>& {
    if constexpr (std::is_same_v<T, int64_t>) {
      return col->MutableI64();
    } else {
      return col->MutableI32();
    }
  }();
  v.resize(ent.size());
  for (size_t g = 0; g < ent.size(); ++g) v[g] = value(ent[g].key);
  return col;
}

// The output key columns, written from the groups' inline keys (for
// MultiKey, gathered from the columns at each group's first row).
template <typename Reader, typename Entry>
void AddKeyColumns(const std::vector<const Column*>& keys,
                   const std::vector<std::string>& names,
                   const std::vector<Entry>& ent, Relation* out) {
  if constexpr (std::is_same_v<Reader, PairKey>) {
    out->AddColumn(names[0], KeyColumn(*keys[0], ent, &PairKey::First));
    out->AddColumn(names[1], KeyColumn(*keys[1], ent, &PairKey::Second));
  } else if constexpr (std::is_same_v<Reader, MultiKey>) {
    SelVec sel(ent.size());
    for (size_t g = 0; g < ent.size(); ++g) sel[g] = ent[g].key;
    for (size_t k = 0; k < keys.size(); ++k) {
      out->AddColumn(names[k], Gather(*keys[k], sel, nullptr));
    }
  } else {
    out->AddColumn(names[0],
                   KeyColumn(*keys[0], ent, [](auto k) { return k; }));
  }
}

int StateWidth(AggFn fn) {
  switch (fn) {
    case AggFn::kAvg:
      return 16;  // sum + count
    default:
      return 8;
  }
}

}  // namespace

Relation HashAggregate(const ColumnSource& src,
                       const std::vector<std::string>& group_by,
                       const std::vector<AggSpec>& aggs, QueryStats* stats) {
  const int64_t n = src.rows();
  obs::OpScope scope("HashAggregate", n);

  std::vector<const Column*> keys;
  keys.reserve(group_by.size());
  for (const auto& name : group_by) keys.push_back(&src.column(name));

  const int threads = PlannedThreads(n);

  Relation out;
  int64_t chain_steps = 0;
  int64_t n_groups = 1;
  std::vector<AggState> states;
  if (keys.empty()) {
    states = AggregateAll(src, aggs, n, threads);
  } else {
    WithKeyReader(keys, [&](auto tag) {
      using Reader = typename decltype(tag)::type;
      const Reader reader = Reader::Make(keys);
      Grouped<Reader> g =
          AggregateWith(reader, src, aggs, n, threads, &chain_steps);
      n_groups = g.table.groups();
      AddKeyColumns<Reader>(keys, group_by, g.table.entries(), &out);
      states = std::move(g.states);
    });
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    out.AddColumn(aggs[i].out, Finalize(states[i]));
  }

  if (stats != nullptr) {
    int key_width = 0;
    for (const Column* k : keys) key_width += storage::TypeWidth(k->type());
    int state_width = 0;
    for (const auto& a : aggs) state_width += StateWidth(a.fn);
    const double table_bytes =
        static_cast<double>(n_groups) * (key_width + state_width + 8);
    const auto steps = static_cast<double>(chain_steps);
    OpStats op;
    op.op = "hash_aggregate";
    op.compute_ops =
        static_cast<double>(n) *
            (cost::kHash * std::max<size_t>(keys.size(), 1) +
             cost::kAggUpdate * static_cast<double>(aggs.size())) +
        steps * cost::kCompare;
    op.seq_bytes = static_cast<double>(n) *
                   (key_width + 8.0 * static_cast<double>(aggs.size()));
    op.rand_count = keys.empty() ? 0 : static_cast<double>(n) + steps;
    op.rand_struct_bytes = table_bytes;
    op.output_bytes =
        static_cast<double>(n_groups) * (key_width + state_width);
    op.rows_in = static_cast<double>(n);
    op.rows_out = static_cast<double>(n_groups);
    if (const CardinalityEstimator* est =
            CurrentExecOptions().cardinality_estimator) {
      op.est_rows = est->EstimateGroupRows(src, group_by, n);
    }
    stats->Add(std::move(op));
    stats->TrackAlloc(table_bytes);
  }
  scope.set_rows_out(n_groups);
  return out;
}

double SumF64(const Column& col, QueryStats* stats) {
  const int64_t n = col.size();
  obs::OpScope scope("sum_f64", n);
  scope.set_rows_out(1);
  double sum = 0;
  const double* d = col.F64Data();
  const int threads = PlannedThreads(n);
  if (threads <= 1) {
    RunSequential(n, [&] {
      for (int64_t i = 0; i < n; ++i) sum += d[i];
    });
  } else {
    std::vector<double> partial(NumMorsels(n), 0.0);
    RunMorsels(n, threads, [&](const parallel::Morsel& m) {
      double local = 0;
      for (int64_t i = m.begin; i < m.end; ++i) local += d[i];
      partial[m.index] = local;
    });
    for (const double p : partial) sum += p;
  }
  if (stats != nullptr) {
    OpStats op;
    op.op = "sum_f64";
    op.compute_ops = static_cast<double>(n) * cost::kArith;
    op.seq_bytes = static_cast<double>(n) * 8;
    op.rows_in = static_cast<double>(n);
    op.rows_out = 1;
    if (CurrentExecOptions().cardinality_estimator != nullptr) op.est_rows = 1;
    stats->Add(std::move(op));
  }
  return sum;
}

double AvgF64(const Column& col, QueryStats* stats) {
  const int64_t n = col.size();
  if (n == 0) return 0;
  return SumF64(col, stats) / static_cast<double>(n);
}

double MaxF64(const Column& col, QueryStats* stats) {
  const int64_t n = col.size();
  obs::OpScope scope("max_f64", n);
  scope.set_rows_out(1);
  double m = -std::numeric_limits<double>::infinity();
  const double* d = col.F64Data();
  const int threads = PlannedThreads(n);
  if (threads <= 1) {
    RunSequential(n, [&] {
      for (int64_t i = 0; i < n; ++i) m = std::max(m, d[i]);
    });
  } else {
    std::vector<double> partial(NumMorsels(n),
                                -std::numeric_limits<double>::infinity());
    RunMorsels(n, threads, [&](const parallel::Morsel& mo) {
      double local = -std::numeric_limits<double>::infinity();
      for (int64_t i = mo.begin; i < mo.end; ++i) {
        local = std::max(local, d[i]);
      }
      partial[mo.index] = local;
    });
    for (const double p : partial) m = std::max(m, p);
  }
  if (stats != nullptr) {
    OpStats op;
    op.op = "max_f64";
    op.compute_ops = static_cast<double>(n) * cost::kCompare;
    op.seq_bytes = static_cast<double>(n) * 8;
    op.rows_in = static_cast<double>(n);
    op.rows_out = 1;
    if (CurrentExecOptions().cardinality_estimator != nullptr) op.est_rows = 1;
    stats->Add(std::move(op));
  }
  return m;
}

}  // namespace wimpi::exec
