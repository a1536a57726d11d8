#include "probes.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "common/date.h"
#include "exec/aggregate.h"
#include "exec/exec_options.h"
#include "exec/filter.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "parallel/pipeline.h"
#include "parallel/task_scheduler.h"
#include "service/fair_scheduler.h"

namespace wimpi::perf {

namespace {

constexpr int kReps = 3;

// Runs `fn` kReps times, each inside a span, and returns the median wall
// seconds divided by `per`, scaled by `unit` (1e9 for ns, 1e6 for us).
double MedianPer(SpanLog* log, int64_t parent, const std::string& name,
                 double per, double unit, const std::function<void()>& fn) {
  std::vector<double> secs;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      SpanScope span(log, name, parent);
      fn();
    }
    secs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2] / std::max(per, 1.0) * unit;
}

}  // namespace

std::map<std::string, double> KernelProbes(const engine::Database& db,
                                           int threads, SpanLog* log,
                                           int64_t parent) {
  using exec::CmpOp;
  using exec::Predicate;
  exec::ExecOptions opts;
  opts.num_threads = threads;
  exec::ScopedExecOptions scope(opts);

  const storage::Table& lineitem = db.table("lineitem");
  const storage::Table& orders = db.table("orders");
  const storage::Table& part = db.table("part");
  const exec::ColumnSource li(lineitem);
  const double n = static_cast<double>(lineitem.num_rows());
  std::map<std::string, double> out;

  // Q6's conjunction: the filter-heavy shape.
  const int32_t lo = ParseDate("1994-01-01");
  const std::vector<Predicate> q6 = {
      Predicate::BetweenDate("l_shipdate", lo, DateAddMonths(lo, 12) - 1),
      Predicate::BetweenF64("l_discount", 0.05, 0.07),
      Predicate::CmpF64("l_quantity", CmpOp::kLt, 24)};
  out["exec.kernel.filter_ns_per_row"] =
      MedianPer(log, parent, "kernel.filter", n, 1e9,
                [&] { exec::Filter(li, q6, nullptr); });

  // Q1's grouping: two one-character flags, four groups.
  out["exec.kernel.agg_lowcard_ns_per_row"] = MedianPer(
      log, parent, "kernel.agg_lowcard", n, 1e9, [&] {
        exec::HashAggregate(li, {"l_returnflag", "l_linestatus"},
                            {{exec::AggFn::kSum, "l_extendedprice", "s"},
                             {exec::AggFn::kCountStar, "", "c"}},
                            nullptr);
      });

  // Q18's grouping: one group per order.
  out["exec.kernel.agg_highcard_ns_per_row"] = MedianPer(
      log, parent, "kernel.agg_highcard", n, 1e9, [&] {
        exec::HashAggregate(li, {"l_orderkey"},
                            {{exec::AggFn::kSum, "l_quantity", "q"}}, nullptr);
      });

  // part ⋈ lineitem on partkey: a small build side, the whole of lineitem
  // probing it.
  out["exec.kernel.join_probe_ns_per_row"] = MedianPer(
      log, parent, "kernel.join_probe", n, 1e9, [&] {
        exec::HashJoin({&part.column("p_partkey")},
                       {&lineitem.column("l_partkey")}, exec::JoinKind::kInner,
                       nullptr);
      });

  const exec::SelVec half = exec::Filter(
      li, {Predicate::CmpF64("l_quantity", CmpOp::kLt, 25)}, nullptr);
  out["exec.kernel.gather_ns_per_row"] = MedianPer(
      log, parent, "kernel.gather", static_cast<double>(half.size()), 1e9,
      [&] { exec::Gather(lineitem.column("l_extendedprice"), half, nullptr); });

  out["exec.kernel.sort_ns_per_row"] = MedianPer(
      log, parent, "kernel.sort", static_cast<double>(orders.num_rows()), 1e9,
      [&] {
        exec::SortPerm(exec::ColumnSource(orders), {{"o_totalprice", false}},
                       nullptr);
      });
  return out;
}

std::map<std::string, double> DispatchProbes(int threads, SpanLog* log,
                                             int64_t parent) {
  const std::function<void(const parallel::Morsel&)> body =
      [](const parallel::Morsel&) {};
  // One one-row morsel per thread: the pipeline fans out but does no work.
  parallel::PipelineSpec small;
  small.total_rows = threads;
  small.morsel_rows = 1;
  small.max_threads = threads;
  small.body = &body;
  // Many one-row morsels: the per-morsel claim and hand-off cost.
  constexpr int64_t kMorsels = 1 << 16;
  parallel::PipelineSpec wide = small;
  wide.total_rows = kMorsels;

  std::map<std::string, double> out;
  parallel::PipelineScheduler& def = parallel::PipelineScheduler::Default();
  constexpr int kPipelines = 2000;
  out["parallel.dispatch_us_per_pipeline"] =
      MedianPer(log, parent, "dispatch.pipelines", kPipelines, 1e6, [&] {
        for (int i = 0; i < kPipelines; ++i) def.RunPipeline(small);
      });
  out["parallel.dispatch_ns_per_morsel"] =
      MedianPer(log, parent, "dispatch.morsels", kMorsels, 1e9,
                [&] { def.RunPipeline(wide); });

  service::FairPipelineScheduler fair(
      &parallel::TaskScheduler::Global().pool());
  parallel::CancellationToken token;
  const int lane = fair.OpenLane(1.0, &token);
  service::LaneScheduler lane_scheduler(&fair, lane);
  out["service.lane_dispatch_ns_per_morsel"] =
      MedianPer(log, parent, "dispatch.lane_morsels", kMorsels, 1e9,
                [&] { lane_scheduler.RunPipeline(wide); });
  fair.CloseLane(lane);
  return out;
}

}  // namespace wimpi::perf
