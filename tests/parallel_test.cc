// Unit tests for the parallel subsystem (thread pool, the fair morsel
// scheduler behind PipelineScheduler::Default()) and 1-vs-N-thread
// equivalence of the parallel operator paths. Thread counts here exceed
// the host's core count on purpose: the determinism guarantees must hold
// regardless of physical parallelism.
#include <atomic>
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "exec/aggregate.h"
#include "exec/exec_options.h"
#include "exec/expr.h"
#include "exec/filter.h"
#include "exec/join.h"
#include "exec/relation_ops.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "parallel/cancellation.h"
#include "parallel/fair_scheduler.h"
#include "parallel/pipeline.h"
#include "parallel/steal.h"
#include "parallel/thread_pool.h"
#include "storage/column.h"

namespace wimpi {
namespace {

using parallel::Morsel;
using parallel::PipelineScheduler;
using parallel::SplitMorsels;
using parallel::ThreadPool;

using MorselBody = std::function<void(const Morsel&)>;

// Runs one pipeline of [0, total) in `morsel_rows` morsels on up to
// `threads` threads through `sched`.
void RunPipeline(PipelineScheduler& sched, int64_t total, int64_t morsel_rows,
                 int threads, const MorselBody& body,
                 const parallel::CancellationToken* cancel = nullptr) {
  parallel::PipelineSpec spec;
  spec.total_rows = total;
  spec.morsel_rows = morsel_rows;
  spec.max_threads = threads;
  spec.body = &body;
  spec.cancel = cancel;
  sched.RunPipeline(spec);
}

// The shape of PipelineScheduler::Default() on a private pool: one open
// priority-1 lane of a FairPipelineScheduler.
class PrivateLane {
 public:
  explicit PrivateLane(int workers = 4)
      : pool_(workers),
        fair_(&pool_),
        lane_(fair_.OpenLane(1.0, &lane_token_)),
        sched_(&fair_, lane_) {}
  ~PrivateLane() { fair_.CloseLane(lane_); }

  PipelineScheduler& sched() { return sched_; }

 private:
  ThreadPool pool_;
  parallel::CancellationToken lane_token_;
  parallel::FairPipelineScheduler fair_;
  int lane_;
  parallel::LaneScheduler sched_;
};

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, StartupAndShutdown) {
  for (int size : {1, 2, 4, 8}) {
    ThreadPool pool(size);
    EXPECT_EQ(pool.size(), size);
  }
  // Destruction with queued work drains the queue.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, SubmitRunsTasksAndFuturesComplete) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  auto ok = pool.Submit([] {});
  ok.get();
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException) {
  // One-row morsels, the micro kernels' all-core shape: the first failure
  // reaches the caller.
  PrivateLane lane;
  std::atomic<int> ran{0};
  EXPECT_THROW(RunPipeline(lane.sched(), 1000, 1, 4,
                           [&](const Morsel& m) {
                             ran.fetch_add(1);
                             if (m.index == 37) {
                               throw std::runtime_error("boom");
                             }
                           }),
               std::runtime_error);
  // The scheduler and its pool remain usable afterwards.
  ran.store(0);
  RunPipeline(lane.sched(), 100, 1, 4,
              [&](const Morsel&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A worker that fans out again must not wait for a pool slot it is
  // occupying itself — nested pipelines run inline on the worker.
  PrivateLane lane(/*workers=*/2);
  std::atomic<int64_t> total{0};
  RunPipeline(lane.sched(), 8, 1, 4, [&](const Morsel&) {
    RunPipeline(lane.sched(), 16, 1, 4,
                [&](const Morsel&) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesCallers) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(2);
  bool on_worker = false;
  pool.Submit([&on_worker] { on_worker = ThreadPool::OnWorkerThread(); })
      .get();
  EXPECT_TRUE(on_worker);
}

TEST(ThreadPoolTest, QueueDepthGaugeTracksBacklog) {
  obs::SetPoolMetricsEnabled(true);
  auto& gauge = obs::MetricsRegistry::Global().gauge("pool.queue_depth");
  {
    ThreadPool pool(1);
    // Pin the only worker so subsequent submits pile up in the queue.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> entered;
    auto blocker = pool.Submit([&] {
      entered.set_value();
      released.wait();
    });
    entered.get_future().wait();
    std::vector<std::future<void>> queued;
    for (int i = 0; i < 3; ++i) {
      queued.push_back(pool.Submit([released] { released.wait(); }));
    }
    EXPECT_EQ(gauge.Value(), 3.0);
    release.set_value();
    blocker.get();
    for (auto& f : queued) f.get();
    // Every pop republished the depth; drained pool reads zero.
    EXPECT_EQ(gauge.Value(), 0.0);
  }
  obs::SetPoolMetricsEnabled(false);
}

// ---------- Morsel splitting ----------

TEST(SplitMorselsTest, CoversRangeWithRaggedTail) {
  const auto morsels = SplitMorsels(100, 32);
  ASSERT_EQ(morsels.size(), 4u);
  int64_t expect_begin = 0;
  for (size_t i = 0; i < morsels.size(); ++i) {
    EXPECT_EQ(morsels[i].index, static_cast<int>(i));
    EXPECT_EQ(morsels[i].begin, expect_begin);
    expect_begin = morsels[i].end;
  }
  EXPECT_EQ(morsels.back().end, 100);
  EXPECT_EQ(morsels.back().rows(), 4);
}

TEST(SplitMorselsTest, EmptyAndSingle) {
  EXPECT_TRUE(SplitMorsels(0, 64).empty());
  const auto one = SplitMorsels(10, 64);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].rows(), 10);
}

TEST(TaskSchedulerTest, RunMorselsVisitsEachMorselOnce) {
  const int64_t total = 1 << 16;
  const int64_t morsel_rows = 1000;
  const auto expected = SplitMorsels(total, morsel_rows);
  std::vector<std::atomic<int>> seen(expected.size());
  for (int threads : {1, 2, 4, 7}) {
    for (auto& s : seen) s.store(0);
    RunPipeline(PipelineScheduler::Default(), total, morsel_rows, threads,
                [&](const Morsel& m) {
                  ASSERT_LT(static_cast<size_t>(m.index), expected.size());
                  EXPECT_EQ(m.begin, expected[m.index].begin);
                  EXPECT_EQ(m.end, expected[m.index].end);
                  seen[m.index].fetch_add(1);
                });
    for (size_t i = 0; i < seen.size(); ++i) {
      ASSERT_EQ(seen[i].load(), 1) << "threads=" << threads << " morsel " << i;
    }
  }
}

// ---------- Cooperative cancellation ----------

TEST(CancellationTest, ParallelForStopsClaimingIterations) {
  PrivateLane lane;
  parallel::CancellationToken cancel;
  std::atomic<int> ran{0};
  // Cancel from inside the pipeline: remaining un-claimed morsels are
  // skipped, in-flight bodies finish, and the call throws Cancelled.
  EXPECT_THROW(RunPipeline(
                   lane.sched(), 100000, 1, 4,
                   [&](const Morsel& m) {
                     ran.fetch_add(1);
                     if (m.index == 10) cancel.Cancel();
                   },
                   &cancel),
               parallel::Cancelled);
  EXPECT_GE(ran.load(), 1);
  EXPECT_LT(ran.load(), 100000);
  // The lane stays usable; a fresh token runs everything.
  cancel.Reset();
  ran.store(0);
  RunPipeline(lane.sched(), 64, 1, 4, [&](const Morsel&) { ran.fetch_add(1); },
              &cancel);
  EXPECT_EQ(ran.load(), 64);
}

TEST(CancellationTest, PreCancelledTokenSkipsInlinePathToo) {
  PrivateLane lane(/*workers=*/2);
  parallel::CancellationToken cancel;
  cancel.Cancel();
  std::atomic<int> ran{0};
  const MorselBody count = [&](const Morsel&) { ran.fetch_add(1); };
  // One morsel takes the inline path; it must honour the token as well.
  EXPECT_THROW(RunPipeline(lane.sched(), 1, 1, 2, count, &cancel),
               parallel::Cancelled);
  EXPECT_THROW(RunPipeline(lane.sched(), 1000, 1, 2, count, &cancel),
               parallel::Cancelled);
  EXPECT_EQ(ran.load(), 0);
  // The lane stays usable once the token is re-armed.
  cancel.Reset();
  RunPipeline(lane.sched(), 1000, 1, 2, count, &cancel);
  EXPECT_EQ(ran.load(), 1000);
}

TEST(CancellationTest, RunMorselsStopsEarly) {
  parallel::CancellationToken cancel;
  std::atomic<int> ran{0};
  EXPECT_THROW(RunPipeline(
                   PipelineScheduler::Default(), 1 << 20, 256, 4,
                   [&](const Morsel& m) {
                     ran.fetch_add(1);
                     if (m.index == 3) cancel.Cancel();
                   },
                   &cancel),
               parallel::Cancelled);
  EXPECT_GE(ran.load(), 1);
  EXPECT_LT(ran.load(), (1 << 20) / 256);
  // The default lane stays usable.
  ran.store(0);
  RunPipeline(PipelineScheduler::Default(), 1024, 256, 4,
              [&](const Morsel&) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

// ---------- Worker exception context ----------

TEST(TaskErrorTest, RunMorselsWrapsWithOpLabelAndMorselRange) {
  try {
    RunPipeline(PipelineScheduler::Default(), 10000, 100, 4,
                [&](const Morsel& m) {
                  if (m.index == 7) throw std::runtime_error("bad morsel");
                });
    FAIL() << "expected TaskError";
  } catch (const parallel::TaskError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[op plan morsel 7 rows 700..800]"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("bad morsel"), std::string::npos);
    // Single-wrap: exactly one context frame, the morsel's.
    EXPECT_EQ(what.find('['), what.rfind('[')) << what;
  }
}

TEST(TaskErrorTest, IsARuntimeErrorForExistingCallers) {
  // Call sites that catch std::runtime_error keep working unchanged.
  const MorselBody fail = [](const Morsel&) {
    throw std::runtime_error("x");
  };
  EXPECT_THROW(RunPipeline(PipelineScheduler::Default(), 100, 1, 2, fail),
               std::runtime_error);
}

// ---------- Operator equivalence: 1 thread vs many ----------

// Forces many morsels so the parallel paths genuinely split the input.
exec::ExecOptions ManyThreadOptions() {
  exec::ExecOptions o;
  o.num_threads = 4;
  o.morsel_rows = 1024;
  return o;
}

std::vector<double> F64(const storage::Column& c) {
  return std::vector<double>(c.F64Data(), c.F64Data() + c.size());
}
std::vector<int32_t> I32(const storage::Column& c) {
  return std::vector<int32_t>(c.I32Data(), c.I32Data() + c.size());
}
std::vector<int64_t> I64(const storage::Column& c) {
  return std::vector<int64_t>(c.I64Data(), c.I64Data() + c.size());
}

std::unique_ptr<storage::Column> MakeF64(int64_t n, uint64_t seed) {
  auto col = std::make_unique<storage::Column>(storage::DataType::kFloat64);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  for (int64_t i = 0; i < n; ++i) col->AppendFloat64(dist(rng));
  return col;
}

std::unique_ptr<storage::Column> MakeI32(int64_t n, int32_t cardinality,
                                         uint64_t seed) {
  auto col = std::make_unique<storage::Column>(storage::DataType::kInt32);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int32_t> dist(0, cardinality - 1);
  for (int64_t i = 0; i < n; ++i) col->AppendInt32(dist(rng));
  return col;
}

TEST(ParallelOperatorsTest, FilterMatchesSequential) {
  const int64_t n = 50000;
  auto vals = MakeF64(n, 1);
  exec::Relation rel;
  rel.AddColumn("v", std::move(vals));
  const exec::ColumnSource src(rel);
  const auto preds = std::vector<exec::Predicate>{
      exec::Predicate::CmpF64("v", exec::CmpOp::kLt, 42.0)};

  const exec::SelVec seq = exec::Filter(src, preds, nullptr);
  exec::ScopedExecOptions scope(ManyThreadOptions());
  const exec::SelVec par = exec::Filter(src, preds, nullptr);
  EXPECT_EQ(par, seq);
}

TEST(ParallelOperatorsTest, GatherAndExprMatchSequential) {
  const int64_t n = 50000;
  exec::Relation rel;
  rel.AddColumn("a", MakeF64(n, 2));
  rel.AddColumn("b", MakeF64(n, 3));
  const exec::ColumnSource src(rel);
  const exec::SelVec sel = exec::Filter(
      src, {exec::Predicate::CmpF64("a", exec::CmpOp::kGe, 25.0)}, nullptr);

  const auto seq_gather = exec::Gather(rel.column("a"), sel, nullptr);
  const auto seq_mul =
      exec::MulF64(rel.column("a"), rel.column("b"), nullptr);

  exec::ScopedExecOptions scope(ManyThreadOptions());
  const auto par_gather = exec::Gather(rel.column("a"), sel, nullptr);
  const auto par_mul =
      exec::MulF64(rel.column("a"), rel.column("b"), nullptr);

  EXPECT_EQ(F64(*par_gather), F64(*seq_gather));
  EXPECT_EQ(F64(*par_mul), F64(*seq_mul));
}

TEST(ParallelOperatorsTest, HashJoinMatchesSequentialExactly) {
  const int64_t n_build = 20000, n_probe = 60000;
  auto build = MakeI32(n_build, 5000, 4);
  auto probe = MakeI32(n_probe, 5000, 5);

  const exec::JoinResult seq = exec::HashJoin(
      {build.get()}, {probe.get()}, exec::JoinKind::kInner, nullptr);
  exec::ScopedExecOptions scope(ManyThreadOptions());
  const exec::JoinResult par = exec::HashJoin(
      {build.get()}, {probe.get()}, exec::JoinKind::kInner, nullptr);

  // The bucket-partitioned parallel build reproduces the sequential LIFO
  // chains, so even the match *order* is identical.
  EXPECT_EQ(par.build_idx, seq.build_idx);
  EXPECT_EQ(par.probe_idx, seq.probe_idx);
}

TEST(ParallelOperatorsTest, SemiAndAntiJoinMatchSequential) {
  const int64_t n_build = 10000, n_probe = 30000;
  auto build = MakeI32(n_build, 2000, 6);
  auto probe = MakeI32(n_probe, 4000, 7);
  for (const auto kind : {exec::JoinKind::kSemi, exec::JoinKind::kAnti}) {
    const exec::JoinResult seq =
        exec::HashJoin({build.get()}, {probe.get()}, kind, nullptr);
    exec::ScopedExecOptions scope(ManyThreadOptions());
    const exec::JoinResult par =
        exec::HashJoin({build.get()}, {probe.get()}, kind, nullptr);
    EXPECT_EQ(par.probe_idx, seq.probe_idx);
  }
}

TEST(ParallelOperatorsTest, HashAggregateMatchesSequential) {
  const int64_t n = 80000;
  exec::Relation rel;
  rel.AddColumn("k", MakeI32(n, 300, 8));
  rel.AddColumn("v", MakeF64(n, 9));
  const exec::ColumnSource src(rel);
  const std::vector<exec::AggSpec> aggs = {
      {exec::AggFn::kSum, "v", "sum_v"},
      {exec::AggFn::kAvg, "v", "avg_v"},
      {exec::AggFn::kMin, "v", "min_v"},
      {exec::AggFn::kMax, "v", "max_v"},
      {exec::AggFn::kCountStar, "", "cnt"}};

  const exec::Relation seq = exec::HashAggregate(src, {"k"}, aggs, nullptr);
  exec::ScopedExecOptions scope(ManyThreadOptions());
  const exec::Relation par = exec::HashAggregate(src, {"k"}, aggs, nullptr);

  // Same groups in the same (first-appearance) order; integer aggregates
  // exact, floating sums within reassociation tolerance.
  ASSERT_EQ(par.num_rows(), seq.num_rows());
  EXPECT_EQ(I32(par.column("k")), I32(seq.column("k")));
  EXPECT_EQ(I64(par.column("cnt")), I64(seq.column("cnt")));
  EXPECT_EQ(F64(par.column("min_v")), F64(seq.column("min_v")));
  EXPECT_EQ(F64(par.column("max_v")), F64(seq.column("max_v")));
  for (int64_t g = 0; g < seq.num_rows(); ++g) {
    EXPECT_NEAR(par.column("sum_v").F64Data()[g],
                seq.column("sum_v").F64Data()[g],
                1e-9 * std::max(1.0, std::fabs(seq.column("sum_v").F64Data()[g])));
    EXPECT_NEAR(par.column("avg_v").F64Data()[g],
                seq.column("avg_v").F64Data()[g], 1e-9);
  }
}

TEST(ParallelOperatorsTest, GlobalAggregateAndScalarReductions) {
  const int64_t n = 70000;
  exec::Relation rel;
  rel.AddColumn("v", MakeF64(n, 10));
  const exec::ColumnSource src(rel);

  const exec::Relation seq = exec::HashAggregate(
      src, {}, {{exec::AggFn::kSum, "v", "s"}, {exec::AggFn::kCountStar, "", "c"}},
      nullptr);
  const double seq_sum = exec::SumF64(rel.column("v"), nullptr);
  const double seq_max = exec::MaxF64(rel.column("v"), nullptr);

  exec::ScopedExecOptions scope(ManyThreadOptions());
  const exec::Relation par = exec::HashAggregate(
      src, {}, {{exec::AggFn::kSum, "v", "s"}, {exec::AggFn::kCountStar, "", "c"}},
      nullptr);
  const double par_sum = exec::SumF64(rel.column("v"), nullptr);
  const double par_max = exec::MaxF64(rel.column("v"), nullptr);

  ASSERT_EQ(par.num_rows(), 1);
  EXPECT_EQ(par.column("c").I64Data()[0], seq.column("c").I64Data()[0]);
  EXPECT_NEAR(par.column("s").F64Data()[0], seq.column("s").F64Data()[0],
              1e-9 * std::fabs(seq.column("s").F64Data()[0]));
  EXPECT_NEAR(par_sum, seq_sum, 1e-9 * std::fabs(seq_sum));
  EXPECT_EQ(par_max, seq_max);  // max is reassociation-free
}

TEST(ParallelOperatorsTest, DeterministicAcrossRepeatedParallelRuns) {
  const int64_t n = 60000;
  exec::Relation rel;
  rel.AddColumn("k", MakeI32(n, 1000, 11));
  rel.AddColumn("v", MakeF64(n, 12));
  const exec::ColumnSource src(rel);
  exec::ScopedExecOptions scope(ManyThreadOptions());

  const exec::Relation a = exec::HashAggregate(
      src, {"k"}, {{exec::AggFn::kSum, "v", "s"}}, nullptr);
  const exec::Relation b = exec::HashAggregate(
      src, {"k"}, {{exec::AggFn::kSum, "v", "s"}}, nullptr);
  // Bit-identical across runs at a fixed thread count: morsel boundaries
  // and merge order are deterministic, whichever workers ran the morsels.
  EXPECT_EQ(I32(a.column("k")), I32(b.column("k")));
  EXPECT_EQ(F64(a.column("s")), F64(b.column("s")));
}

TEST(ParallelOperatorsTest, StatsAreThreadCountInvariant) {
  // Workers never touch QueryStats: the caller folds per-morsel partials
  // into one OpStats after the morsels join, so the counter stream is
  // identical to sequential execution for deterministic operators.
  const int64_t n = 50000;
  exec::Relation rel;
  rel.AddColumn("v", MakeF64(n, 13));
  const exec::ColumnSource src(rel);
  const auto preds = std::vector<exec::Predicate>{
      exec::Predicate::CmpF64("v", exec::CmpOp::kLt, 50.0)};

  exec::QueryStats seq_stats;
  const exec::SelVec sel = exec::Filter(src, preds, &seq_stats);
  exec::SumF64(rel.column("v"), &seq_stats);

  exec::QueryStats par_stats;
  {
    exec::ScopedExecOptions scope(ManyThreadOptions());
    exec::Filter(src, preds, &par_stats);
    exec::SumF64(rel.column("v"), &par_stats);
  }

  ASSERT_EQ(par_stats.ops.size(), seq_stats.ops.size());
  for (size_t i = 0; i < seq_stats.ops.size(); ++i) {
    EXPECT_EQ(par_stats.ops[i].op, seq_stats.ops[i].op);
    EXPECT_EQ(par_stats.ops[i].compute_ops, seq_stats.ops[i].compute_ops);
    EXPECT_EQ(par_stats.ops[i].seq_bytes, seq_stats.ops[i].seq_bytes);
    EXPECT_EQ(par_stats.ops[i].rand_count, seq_stats.ops[i].rand_count);
  }
  EXPECT_FALSE(sel.empty());
}

TEST(ParallelOperatorsTest, PlannedThreadsGates) {
  // Default options: everything sequential.
  EXPECT_EQ(exec::PlannedThreads(1 << 20), 1);
  {
    exec::ScopedExecOptions scope(ManyThreadOptions());
    EXPECT_EQ(exec::PlannedThreads(1 << 20), 4);
    // Tiny inputs do not fan out.
    EXPECT_EQ(exec::PlannedThreads(100), 1);
    // Workers never re-parallelize.
    ThreadPool pool(1);
    int nested = -1;
    pool.Submit([&nested] { nested = exec::PlannedThreads(1 << 20); }).get();
    EXPECT_EQ(nested, 1);
  }
  EXPECT_EQ(exec::PlannedThreads(1 << 20), 1);
}

TEST(StealPrimitivesTest, MorselCountForRowsBounds) {
  using parallel::MorselCountForRows;
  // Degenerate inputs collapse to one morsel.
  EXPECT_EQ(MorselCountForRows(0, 1.0, 1024, 256), 1);
  EXPECT_EQ(MorselCountForRows(-5, 1.0, 1024, 256), 1);
  EXPECT_EQ(MorselCountForRows(100, 1.0, 0, 256), 1);
  // Exact and ceiling division at the model scale.
  EXPECT_EQ(MorselCountForRows(2048, 1.0, 1024, 256), 2);
  EXPECT_EQ(MorselCountForRows(2049, 1.0, 1024, 256), 3);
  // The SF scale multiplies the logical row count.
  EXPECT_EQ(MorselCountForRows(1024, 4.0, 1024, 256), 4);
  // Cap: SF-100-class partitions stay cheap to model.
  EXPECT_EQ(MorselCountForRows(1 << 30, 10.0, 1024, 256), 256);
}

TEST(StealPrimitivesTest, StealHalfSplitsAndRespectsMinimum) {
  using parallel::MorselRange;
  using parallel::StealHalf;
  // Victim keeps the first half rounded up; thief takes the tail.
  MorselRange v{0, 10};
  const MorselRange stolen = StealHalf(&v, 2);
  EXPECT_EQ(v.begin, 0);
  EXPECT_EQ(v.end, 5);
  EXPECT_EQ(stolen.begin, 5);
  EXPECT_EQ(stolen.end, 10);
  // Odd sizes: victim keeps the extra morsel.
  MorselRange odd{4, 9};
  const MorselRange tail = StealHalf(&odd, 2);
  EXPECT_EQ(odd.end, 7);
  EXPECT_EQ(tail.begin, 7);
  EXPECT_EQ(tail.end, 9);
  // Below the minimum nothing moves.
  MorselRange tiny{0, 1};
  EXPECT_TRUE(StealHalf(&tiny, 2).empty());
  EXPECT_EQ(tiny.size(), 1);
}

TEST(StealPrimitivesTest, PickVictimPrefersMostLoaded) {
  using parallel::PickVictim;
  using parallel::VictimLoad;
  const std::vector<VictimLoad> loads = {
      {1.0, 4}, {5.0, 8}, {5.0, 8}, {0.5, 1}};
  // Most remaining work wins; ties break to the lowest index.
  EXPECT_EQ(PickVictim(loads, 0, 2), 1);
  // A thief never robs itself.
  EXPECT_EQ(PickVictim(loads, 1, 2), 2);
  // Victims below the min-steal threshold are skipped (index 3).
  EXPECT_EQ(PickVictim({{9.0, 1}, {1.0, 4}}, 2, 2), 1);
  // Nothing worth stealing.
  EXPECT_EQ(PickVictim({{9.0, 1}, {1.0, 0}}, 2, 2), -1);
}

}  // namespace
}  // namespace wimpi
