#include "exec/aggregate.h"

#include <algorithm>
#include <array>
#include <atomic>
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

// Bucket count of a group table over `rows` keys.
uint64_t TableBuckets(int64_t rows) {
  return std::bit_ceil(static_cast<uint64_t>(std::max<int64_t>(rows / 2, 16)));
}

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
        head_(TableBuckets(rows), -1),
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

// The hash path's merge (clustered input is concatenated instead, see
// ConcatRuns). Folds chunk tables in chunk order into one table over all
// their groups: first appearance across the chunks is first appearance in
// the whole scan, so group order and every group's fold order match the
// sequential run. The table is sized for the total chunk group count, and
// it sees the chunks' keys in the same order a re-aggregation of their
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

// Runs fn(begin, end) over `threads` equal chunks of [0, n) (one chunk at
// one thread, none over no rows); the results come back in chunk order.
// Every slot is filled: a cancelled pipeline throws instead of returning.
template <typename Fn>
auto PerChunk(int64_t n, int threads, const Fn& fn) {
  const int64_t chunk_rows = std::max<int64_t>(1, (n + threads - 1) / threads);
  std::vector<std::optional<decltype(fn(0, 0))>> parts(
      (n + chunk_rows - 1) / chunk_rows);
  RunChunks(n, chunk_rows, threads, [&](const parallel::Morsel& m) {
    parts[m.index].emplace(fn(m.begin, m.end));
  });
  return parts;
}

// Thread-local chunk tables (no shared mutable state) merged in chunk
// order; a single chunk is the answer as it stands.
template <typename Reader>
Grouped<Reader> AggregateWith(const Reader& reader, const ColumnSource& src,
                              const std::vector<AggSpec>& aggs, int64_t n,
                              int threads, int64_t* chain_steps) {
  auto parts = PerChunk(n, threads, [&](int64_t begin, int64_t end) {
    return AggregateRange(reader, src, aggs, begin, end);
  });
  if (parts.size() == 1) {
    *chain_steps = parts[0]->table.chain_steps();
    return std::move(*parts[0]);
  }
  Grouped<Reader> g = MergeChunks(reader, src, aggs, parts);
  *chain_steps = g.table.chain_steps();
  for (const auto& p : parts) *chain_steps += p->table.chain_steps();
  return g;
}

// ---------- Clustered input: grouping run by run ----------
//
// When the leading key column never descends, equal lead values form runs
// and every group lies inside one run, so a row is matched only against
// the groups of its own run, and no table is built. The result is the hash
// path's: the same chunks, the same first-appearance group order, the same
// fold order, and the chain_steps that path's tables would have counted.
// In a chained table with head insertion, a new group walks its bucket's
// whole chain, so the misses of a table come to sum_b k_b(k_b - 1)/2 over
// its per-bucket group counts k_b. A repeat walks past the groups inserted
// after its own in its bucket, which are all of its own run: it costs 1
// plus the later groups of its run in the same bucket.

// Compares lead rows r - 1 and r: 0 if equal, 1 if the value rises, -1 if
// it descends. NaN compares false both ways, so it counts as a descent.
int LeadStep(const Column& c, int64_t r) {
  auto step = [](auto a, auto b) { return a == b ? 0 : a < b ? 1 : -1; };
  switch (c.type()) {
    case DataType::kInt64:
      return step(c.I64Data()[r - 1], c.I64Data()[r]);
    case DataType::kFloat64:
      return step(c.F64Data()[r - 1], c.F64Data()[r]);
    default:
      return step(c.I32Data()[r - 1], c.I32Data()[r]);
  }
}

// Most groups one run may hold: each row is compared with its run's groups
// one by one. A run with more sends the aggregate down the hash path. 8
// holds lineitem's up to 7 lines per order. Timed on 1.5M clustered
// (int64, int32) rows with k groups per run (sum and count; median of 21
// calls, 4-vCPU host), run path over hash path: with each group once per
// run, 0.75-0.99 at 1 thread and 0.41-0.77 at 4 for k from 4 to 16; with
// each group four times per run, 1.24 (k = 4), 1.51 (8) and 2.33 (16) at
// 1 thread, and 0.56, 0.89 and 1.31 at 4. Up to 8 the run path does not
// lose at 4 threads.
constexpr int kRunGroups = 8;

// Groups in first-appearance order: each group's key (a MultiKey's first
// row) and the states. From one chunk, `continues` says whether its first
// row continues the previous row's run; its first run holds groups
// [0, first_run_groups) and its last run groups [last_run_first, end).
template <typename Key>
struct RunGroups {
  std::vector<Key> keys;
  std::vector<AggState> states;
  int64_t chain_steps = 0;
  bool continues = false;
  int64_t first_run_groups = 0;
  int64_t last_run_first = 0;
};

// A group of the current run, with its bucket in the table being counted.
template <typename Key>
struct RunMember {
  Key key;
  int32_t gid;
  uint64_t bucket;
};

// Chain steps of a repeat of run member m: 1, plus one for each later
// member in its bucket.
template <typename Key>
int64_t RepeatSteps(const RunMember<Key>* run, int64_t members, int64_t m) {
  int64_t steps = 1;
  for (int64_t l = m + 1; l < members; ++l) {
    steps += run[l].bucket == run[m].bucket;
  }
  return steps;
}

// Groups rows [begin, end) run by run. The chunk checks the clustering
// itself, from the step over its left edge on: at a descent, or at a run
// with more than kRunGroups groups, it sets `*give_up` and stops, and every
// chunk stops at its next batch once another has set it.
template <typename Reader>
RunGroups<typename Reader::Value> AggregateRunsRange(
    const Reader& reader, const Column& lead, const ColumnSource& src,
    const std::vector<AggSpec>& aggs, int64_t begin, int64_t end,
    std::atomic<bool>* give_up) {
  using Key = typename Reader::Value;
  // With one int32-class or int64 key, a run is one group, and a
  // branch-free loop finds where each starts. Against the run-member loop
  // below on the same readers (bench_perf, 6 interleaved pairs, seeds 1-6,
  // 10 s, 4-vCPU host; medians [quartiles], member loop -> this loop):
  // traced exec.hash_aggregate.self_s 142.7 [138.5-158.9] -> 117.7 ms on
  // power_sf025_t1 and 89.2 [82.7-92.2] -> 77.0 ms on power_sf025_t4;
  // untraced geomean_s 9.29 [9.14-9.37] -> 8.84 ms and 5.40 [5.14-5.65]
  // -> 5.05 ms. This loop was faster in 6 of 6 pairs on all four rows, by
  // more than the member loop's quartile spread on all but the t4
  // geomean_s (0.35 ms against 0.51).
  constexpr bool kOneGroupRuns =
      std::is_same_v<Reader, I32Key> || std::is_same_v<Reader, I64Key>;
  auto stop = [&] {
    give_up->store(true, std::memory_order_relaxed);
    return RunGroups<Key>{};
  };
  RunGroups<Key> out;
  out.states = MakeStates(src, aggs);
  if (begin > 0) {
    const int step = LeadStep(lead, begin);
    if (step < 0) return stop();
    out.continues = step == 0;
  }
  // Groups per bucket of the chunk's GroupTable: a new group walks them.
  // Filled once the first batch has passed the check, so input that
  // descends within it does not pay for it.
  std::vector<int32_t> count;
  const uint64_t mask = TableBuckets(end - begin) - 1;
  RunMember<Key> run[kRunGroups];
  int64_t members = 0;
  bool first_run = true;
  int32_t gid[kBatch];
  Key fresh_key[kBatch];
  uint64_t fresh[kBatch];  // buckets of the batch's new groups
  int64_t steps = 0;
  for (int64_t b0 = begin; b0 < end; b0 += kBatch) {
    if (give_up->load(std::memory_order_relaxed)) return {};
    const int64_t n = std::min(kBatch, end - b0);
    int64_t n_fresh = 0;
    if constexpr (kOneGroupRuns) {
      // A group starts where the key changes; a repeat is its run's only
      // group, one step.
      auto g = static_cast<int32_t>(out.keys.size()) - 1;
      Key prev = g >= 0 ? out.keys.back() : reader.Load(b0);
      bool descends = false;
      for (int64_t i = 0; i < n; ++i) {
        const Key k = reader.Load(b0 + i);
        const bool is_new = b0 + i == begin || !reader.Same(prev, k);
        descends |= k < prev;
        g += is_new;
        gid[i] = g;
        fresh_key[n_fresh] = k;
        n_fresh += is_new;
        prev = k;
      }
      if (descends) return stop();
      steps += n - n_fresh;
      out.keys.insert(out.keys.end(), fresh_key, fresh_key + n_fresh);
      for (int64_t i = 0; i < n_fresh; ++i) {
        fresh[i] = reader.HashValue(fresh_key[i]) & mask;
      }
    } else {
      for (int64_t i = 0; i < n; ++i) {
        const int64_t r = b0 + i;
        const int step = r > begin ? LeadStep(lead, r) : 0;
        if (step < 0) return stop();
        if (step > 0) {
          const auto groups = static_cast<int64_t>(out.keys.size());
          if (first_run) out.first_run_groups = groups;
          first_run = false;
          out.last_run_first = groups;
          members = 0;
        }
        const Key k = reader.Load(r);
        int64_t m = 0;
        while (m < members && !reader.Same(run[m].key, k)) ++m;
        if (m < members) {
          steps += RepeatSteps(run, members, m);
        } else {
          if (members == kRunGroups) return stop();
          const auto g = static_cast<int32_t>(out.keys.size());
          out.keys.push_back(k);
          run[members++] = {k, g, reader.HashValue(k) & mask};
          fresh[n_fresh++] = run[m].bucket;
        }
        gid[i] = run[m].gid;
      }
    }
    if (count.empty()) count.assign(mask + 1, 0);
    int32_t* cnt = count.data();
    for (int64_t i = 0; i < n_fresh; ++i) {
      if (i + kHeadAhead < n_fresh) {
        __builtin_prefetch(cnt + fresh[i + kHeadAhead]);
      }
      steps += cnt[fresh[i]]++;
    }
    for (AggState& s : out.states) {
      s.grow(s, static_cast<int64_t>(out.keys.size()));
      s.update(s, gid, b0, n);
    }
  }
  const auto groups = static_cast<int64_t>(out.keys.size());
  if constexpr (kOneGroupRuns) {
    out.first_run_groups = std::min<int64_t>(groups, 1);
    out.last_run_first = std::max<int64_t>(groups - 1, 0);
  } else if (first_run) {
    out.first_run_groups = groups;
  }
  out.chain_steps = steps;
  return out;
}

// Concatenates chunk results in chunk order. Only the groups a chunk's
// first run shares with the run it continues are folded, in chunk order;
// every other group is copied, morsel-parallel, to its place. The chain
// steps are the chunks' plus those of the hash path's merge table (sized
// for the total chunk group count, which sees the chunks' groups in this
// same order): a repeat per shared group, and the misses of the final
// groups, counted per bucket by concurrent increments.
template <typename Reader>
RunGroups<typename Reader::Value> ConcatRuns(
    const Reader& reader, const ColumnSource& src,
    const std::vector<AggSpec>& aggs,
    const std::vector<std::optional<RunGroups<typename Reader::Value>>>& parts,
    int threads) {
  using Key = typename Reader::Value;
  int64_t total = 0;
  for (const auto& p : parts) total += static_cast<int64_t>(p->keys.size());
  std::vector<int32_t> count(TableBuckets(total), 0);
  const uint64_t mask = count.size() - 1;

  // The chunk edges, in order: the final id of each chunk's first-run
  // groups (shared or new) and of its first later group, which with the
  // rest of the chunk's groups takes the next ids.
  RunGroups<Key> out;
  std::vector<RunMember<Key>> run;  // the last run so far
  std::vector<std::vector<int32_t>> first_gid(parts.size());
  std::vector<int32_t> base(parts.size()), rest_gid(parts.size());
  int32_t groups = 0;
  for (size_t c = 0; c < parts.size(); ++c) {
    const RunGroups<Key>& p = *parts[c];
    out.chain_steps += p.chain_steps;
    base[c] = groups;
    if (!p.continues) run.clear();
    for (int64_t j = 0; j < p.first_run_groups; ++j) {
      const auto members = static_cast<int64_t>(run.size());
      int64_t m = 0;
      while (m < members && !reader.Same(run[m].key, p.keys[j])) ++m;
      if (m < members) {
        out.chain_steps += RepeatSteps(run.data(), members, m);
      } else {
        const uint64_t b = reader.HashValue(p.keys[j]) & mask;
        out.chain_steps += count[b]++;
        run.push_back({p.keys[j], groups++, b});
      }
      first_gid[c].push_back(run[m].gid);
    }
    rest_gid[c] = groups;
    if (p.last_run_first > 0) {
      run.clear();
      for (auto j = p.last_run_first; j < static_cast<int64_t>(p.keys.size());
           ++j) {
        run.push_back({p.keys[j],
                       static_cast<int32_t>(groups + j - p.first_run_groups),
                       reader.HashValue(p.keys[j]) & mask});
      }
    }
    groups += static_cast<int32_t>(p.keys.size() - p.first_run_groups);
  }

  out.keys.resize(groups);
  out.states = MakeStates(src, aggs);
  for (AggState& s : out.states) s.grow(s, groups);
  // Groups past each chunk's first run are its own: copy them and count
  // them into the merge table's buckets. A state merged into a new group
  // is a copy (the initial value is the identity of every fold).
  std::vector<int64_t> misses(parts.size());
  auto copy_rest = [&](const parallel::Morsel& mo) {
    const RunGroups<Key>& p = *parts[mo.index];
    const auto size = static_cast<int64_t>(p.keys.size());
    int32_t gid[kBatch];
    uint64_t bkt[kBatch];
    int64_t steps = 0;
    for (int64_t g0 = p.first_run_groups; g0 < size; g0 += kBatch) {
      const int64_t n = std::min(kBatch, size - g0);
      const auto to =
          rest_gid[mo.index] + static_cast<int32_t>(g0 - p.first_run_groups);
      for (int64_t i = 0; i < n; ++i) {
        out.keys[to + i] = p.keys[g0 + i];
        gid[i] = to + static_cast<int32_t>(i);
        bkt[i] = reader.HashValue(p.keys[g0 + i]) & mask;
      }
      for (int64_t i = 0; i < n; ++i) {
        if (i + kHeadAhead < n) {
          __builtin_prefetch(count.data() + bkt[i + kHeadAhead], 1);
        }
        steps += std::atomic_ref<int32_t>(count[bkt[i]])
                     .fetch_add(1, std::memory_order_relaxed);
      }
      for (size_t j = 0; j < out.states.size(); ++j) {
        AggState& s = out.states[j];
        s.merge(s, p.states[j], g0, gid, n);
      }
    }
    misses[mo.index] = steps;
  };
  RunChunks(static_cast<int64_t>(parts.size()), 1, threads, copy_rest);
  // Then the first runs, in chunk order: new groups are copied, shared
  // ones fold into the group they continue.
  for (size_t c = 0; c < parts.size(); ++c) {
    const RunGroups<Key>& p = *parts[c];
    out.chain_steps += misses[c];
    for (int64_t j = 0; j < p.first_run_groups; ++j) {
      if (first_gid[c][j] >= base[c]) out.keys[first_gid[c][j]] = p.keys[j];
    }
    for (size_t j = 0; j < out.states.size(); ++j) {
      AggState& s = out.states[j];
      s.merge(s, p.states[j], 0, first_gid[c].data(), p.first_run_groups);
    }
  }
  return out;
}

// The run path over `threads` chunks (the hash path's split), or nothing
// if the lead column descends or a run held more groups than it handles.
template <typename Reader>
std::optional<RunGroups<typename Reader::Value>> AggregateRuns(
    const Reader& reader, const Column& lead, const ColumnSource& src,
    const std::vector<AggSpec>& aggs, int64_t n, int threads) {
  std::atomic<bool> give_up{false};
  auto parts = PerChunk(n, threads, [&](int64_t begin, int64_t end) {
    return AggregateRunsRange(reader, lead, src, aggs, begin, end, &give_up);
  });
  if (give_up.load()) return std::nullopt;
  if (parts.size() == 1) return std::move(*parts[0]);
  return ConcatRuns(reader, src, aggs, parts, threads);
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
  auto parts = PerChunk(n, threads, run);
  if (parts.size() == 1) return std::move(*parts[0]);
  std::vector<AggState> states = run(0, 0);
  for (const auto& p : parts) {
    for (size_t j = 0; j < states.size(); ++j) {
      states[j].merge(states[j], (*p)[j], 0, kZeros.data(), 1);
    }
  }
  return states;
}

// A column typed, dictionary-shared and origin-tagged like `src`, holding
// value(key(g)) for each group g.
template <typename KeyOf, typename Fn>
std::unique_ptr<Column> KeyColumn(const Column& src, int64_t groups,
                                  const KeyOf& key, Fn value) {
  auto col = src.dict() != nullptr
                 ? std::make_unique<Column>(src.type(), src.dict())
                 : std::make_unique<Column>(src.type());
  col->set_origin(src.origin());
  using T = decltype(value(key(0)));
  std::vector<T>& v = [&]() -> std::vector<T>& {
    if constexpr (std::is_same_v<T, int64_t>) {
      return col->MutableI64();
    } else {
      return col->MutableI32();
    }
  }();
  v.resize(groups);
  for (int64_t g = 0; g < groups; ++g) v[g] = value(key(g));
  return col;
}

// The output key columns, written from each group's key(g) (for MultiKey,
// gathered from the columns at each group's first row).
template <typename Reader, typename KeyOf>
void AddKeyColumns(const std::vector<const Column*>& keys,
                   const std::vector<std::string>& names, int64_t groups,
                   const KeyOf& key, Relation* out) {
  if constexpr (std::is_same_v<Reader, PairKey>) {
    out->AddColumn(names[0],
                   KeyColumn(*keys[0], groups, key, &PairKey::First));
    out->AddColumn(names[1],
                   KeyColumn(*keys[1], groups, key, &PairKey::Second));
  } else if constexpr (std::is_same_v<Reader, MultiKey>) {
    SelVec sel(groups);
    for (int64_t g = 0; g < groups; ++g) sel[g] = key(g);
    for (size_t k = 0; k < keys.size(); ++k) {
      out->AddColumn(names[k], Gather(*keys[k], sel, nullptr));
    }
  } else {
    out->AddColumn(names[0], KeyColumn(*keys[0], groups, key,
                                       [](auto k) { return k; }));
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
      if (auto g = AggregateRuns(reader, *keys[0], src, aggs, n, threads)) {
        n_groups = static_cast<int64_t>(g->keys.size());
        chain_steps = g->chain_steps;
        AddKeyColumns<Reader>(keys, group_by, n_groups,
                              [&](int64_t i) { return g->keys[i]; }, &out);
        states = std::move(g->states);
        return;
      }
      Grouped<Reader> g =
          AggregateWith(reader, src, aggs, n, threads, &chain_steps);
      n_groups = g.table.groups();
      const auto& ent = g.table.entries();
      AddKeyColumns<Reader>(keys, group_by, n_groups,
                            [&](int64_t i) { return ent[i].key; }, &out);
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
  std::vector<double> partial(NumMorsels(n, threads), 0.0);
  RunMorsels(n, threads, [&](const parallel::Morsel& m) {
    double local = 0;
    for (int64_t i = m.begin; i < m.end; ++i) local += d[i];
    partial[m.index] = local;
  });
  for (const double p : partial) sum += p;
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
  std::vector<double> partial(NumMorsels(n, threads),
                              -std::numeric_limits<double>::infinity());
  RunMorsels(n, threads, [&](const parallel::Morsel& mo) {
    double local = -std::numeric_limits<double>::infinity();
    for (int64_t i = mo.begin; i < mo.end; ++i) local = std::max(local, d[i]);
    partial[mo.index] = local;
  });
  for (const double p : partial) m = std::max(m, p);
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
