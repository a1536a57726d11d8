#include "cluster/partials.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "cluster/partition.h"
#include "exec/relation_ops.h"
#include "obs/profiler.h"
#include "tpch/queries.h"
#include "tpch/query_utils.h"

namespace wimpi::cluster {

using engine::Database;
using exec::AggFn;
using exec::AggSpec;
using exec::QueryStats;
using exec::Relation;
using tpch::QuerySplit;

namespace {

// The three derivation rules described in partials.h.
enum class Rule { kGrouped, kDisjoint, kKeyless };

Rule RuleOf(const QuerySplit& s) {
  const auto& keys = s.group_by;
  if (keys.empty() &&
      std::all_of(s.aggs.begin(), s.aggs.end(),
                  [](const AggSpec& a) { return a.fn == AggFn::kSum; })) {
    return Rule::kKeyless;
  }
  const bool on_partition_key =
      std::find(keys.begin(), keys.end(), kPartitionKey) != keys.end();
  return on_partition_key && !s.finish ? Rule::kDisjoint : Rule::kGrouped;
}

// The grouped rule's node aggregate: every non-AVG spec keeps its own
// state; AVG(x) reads a SUM(x) and a COUNT(*) state, reusing ones already
// there. states[value[i]] holds spec i's value (an AVG's sum); count[i] is
// an AVG's count state, -1 otherwise.
struct Decomposed {
  std::vector<AggSpec> states;
  std::vector<int> value;
  std::vector<int> count;
};

Decomposed Decompose(const std::vector<AggSpec>& aggs) {
  Decomposed d;
  d.value.assign(aggs.size(), -1);
  d.count.assign(aggs.size(), -1);
  auto add = [&](AggFn fn, const std::string& in) {
    d.states.push_back({fn, in, "state" + std::to_string(d.states.size())});
    return static_cast<int>(d.states.size()) - 1;
  };
  auto reuse = [&](AggFn fn, const std::string& in) {
    for (size_t i = 0; i < d.states.size(); ++i) {
      if (d.states[i].fn == fn &&
          (fn == AggFn::kCountStar || d.states[i].in == in)) {
        return static_cast<int>(i);
      }
    }
    return add(fn, in);
  };
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].fn != AggFn::kAvg) d.value[i] = add(aggs[i].fn, aggs[i].in);
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].fn != AggFn::kAvg) continue;
    d.value[i] = reuse(AggFn::kSum, aggs[i].in);
    d.count[i] = reuse(AggFn::kCountStar, "");
  }
  return d;
}

// How the coordinator folds one node state across nodes.
AggFn MergeFn(AggFn fn) {
  switch (fn) {
    case AggFn::kMin:
    case AggFn::kMax:
      return fn;
    case AggFn::kSum:
      return AggFn::kSum;
    default:  // counts and integral sums stay integral
      return AggFn::kSumI64;
  }
}

Relation MergeGrouped(const QuerySplit& s, const Database& coord_db,
                      const Relation& all, QueryStats* stats) {
  const Decomposed d = Decompose(s.aggs);
  std::vector<AggSpec> fold;
  for (const AggSpec& st : d.states) {
    fold.push_back({MergeFn(st.fn), st.out, st.out});
  }
  Relation agg =
      exec::HashAggregate(exec::ColumnSource(all), s.group_by, fold, stats);
  const int nk = static_cast<int>(s.group_by.size());
  // One CastF64 per count state an AVG divides by, then one DivF64 per AVG.
  std::map<int, std::unique_ptr<storage::Column>> count_f64;
  for (const int c : d.count) {
    if (c >= 0 && count_f64.count(c) == 0) {
      count_f64[c] = exec::CastF64(agg.column(nk + c), stats);
    }
  }
  std::vector<std::unique_ptr<storage::Column>> avg(s.aggs.size());
  for (size_t i = 0; i < s.aggs.size(); ++i) {
    if (d.count[i] < 0) continue;
    avg[i] = exec::DivF64(agg.column(nk + d.value[i]), *count_f64[d.count[i]],
                          stats);
  }
  Relation out;
  for (int k = 0; k < nk; ++k) out.AddColumn(s.group_by[k], agg.TakeColumn(k));
  for (size_t i = 0; i < s.aggs.size(); ++i) {
    out.AddColumn(s.aggs[i].out, d.count[i] >= 0
                                     ? std::move(avg[i])
                                     : agg.TakeColumn(nk + d.value[i]));
  }
  return s.Finish(coord_db, std::move(out), stats);
}

// Keyless sums merge by summing each column again.
std::vector<AggSpec> ResumSpecs(const std::vector<AggSpec>& aggs) {
  std::vector<AggSpec> out;
  for (const AggSpec& a : aggs) out.push_back({AggFn::kSum, a.out, a.out});
  return out;
}

}  // namespace

bool QueryFansOut(int q) { return tpch::SplitOf(q).has_value(); }

Relation RunPartial(const QuerySplit& split, const Database& node_db,
                    QueryStats* stats) {
  const Relation in = split.input(node_db, stats);
  switch (RuleOf(split)) {
    case Rule::kKeyless:
      return tpch::ScalarSums(in, split.aggs, stats);
    case Rule::kDisjoint: {
      // Groups never span nodes, so the node-local top-k is enough for a
      // correct global top-k.
      Relation agg = split.Aggregate(in, stats);
      if (split.limit < 0) return agg;
      return exec::SortRelation(agg, split.order_by, stats, split.limit);
    }
    case Rule::kGrouped:
      break;
  }
  return exec::HashAggregate(exec::ColumnSource(in), split.group_by,
                             Decompose(split.aggs).states, stats);
}

Relation MergePartials(const QuerySplit& split, const Database& coord_db,
                       std::vector<Relation> partials, QueryStats* stats) {
  Relation all = exec::ConcatRelations(std::move(partials), stats);
  switch (RuleOf(split)) {
    case Rule::kKeyless:
      return split.Finish(
          coord_db, tpch::ScalarSums(all, ResumSpecs(split.aggs), stats),
          stats);
    case Rule::kDisjoint:
      return split.Finish(coord_db, std::move(all), stats);
    case Rule::kGrouped:
      break;
  }
  return MergeGrouped(split, coord_db, all, stats);
}

Relation RunPartial(int q, const Database& node_db, QueryStats* stats) {
  obs::OpScope scope("RunPartial", 0);
  const std::optional<QuerySplit> split = tpch::SplitOf(q);
  // A query without a split runs whole on one node.
  Relation r = split ? RunPartial(*split, node_db, stats)
                     : tpch::RunQuery(q, node_db, stats);
  scope.set_rows_out(r.num_rows());
  return r;
}

Relation MergePartials(int q, const Database& coord_db,
                       std::vector<Relation> partials, QueryStats* stats) {
  int64_t rows_in = 0;
  for (const Relation& p : partials) rows_in += p.num_rows();
  obs::OpScope scope("MergePartials", rows_in);
  const std::optional<QuerySplit> split = tpch::SplitOf(q);
  WIMPI_CHECK(split || partials.size() == 1);
  Relation r = split ? MergePartials(*split, coord_db, std::move(partials),
                                     stats)
                     : std::move(partials[0]);
  scope.set_rows_out(r.num_rows());
  return r;
}

}  // namespace wimpi::cluster
