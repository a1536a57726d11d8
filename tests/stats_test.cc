// Column statistics & plan-quality observability (DESIGN.md §13):
//   * HyperLogLog accuracy (< 3% relative error at the default 2^14
//     registers across a cardinality sweep) and shard-merge identity;
//   * equi-depth histogram accuracy on uniform, point-mass-skewed, and
//     real TPC-H distributions (key-like l_orderkey, low-NDV
//     l_returnflag);
//   * BuildTableStats determinism: bit-identical statistics at any thread
//     count, and sampled builds that stay close to eager ones;
//   * StatsRegistry selectivity / join-cardinality estimates against
//     ground truth, lazy auto-collect, and concurrent collect+estimate
//     (the TSan target for the registry's shared_mutex paths);
//   * cardinality capture end to end: all 22 TPC-H answers bit-identical
//     with the estimator installed, rows_in/rows_out recorded, Q-error
//     residual reports (including Scale() invariance) and their metrics /
//     exposition round trip.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "exec/exec_options.h"
#include "exec/filter.h"
#include "gtest/gtest.h"
#include "obs/export/exposition.h"
#include "obs/metrics.h"
#include "obs/residual.h"
#include "stats/registry.h"
#include "stats/sketch.h"
#include "stats/table_stats.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

engine::Database& TestDb() {
  static engine::Database* db = nullptr;
  if (db == nullptr) {
    tpch::GenOptions opts;
    opts.scale_factor = 0.01;
    db = new engine::Database(tpch::GenerateDatabase(opts));
  }
  return *db;
}

double ValueAt(const storage::Column& col, int64_t row) {
  switch (col.type()) {
    case storage::DataType::kInt64:
      return static_cast<double>(col.I64Data()[row]);
    case storage::DataType::kFloat64:
      return col.F64Data()[row];
    default:
      return static_cast<double>(col.I32Data()[row]);
  }
}

// Exact fraction of rows with value <= v.
double TrueFractionAtMost(const storage::Column& col, double v) {
  const int64_t n = col.size();
  int64_t c = 0;
  for (int64_t r = 0; r < n; ++r) c += ValueAt(col, r) <= v ? 1 : 0;
  return n == 0 ? 0 : static_cast<double>(c) / static_cast<double>(n);
}

int64_t ExactNdv(const storage::Column& col) {
  std::set<double> s;
  for (int64_t r = 0; r < col.size(); ++r) s.insert(ValueAt(col, r));
  return static_cast<int64_t>(s.size());
}

// ---------------------------------------------------------------------------
// HyperLogLog
// ---------------------------------------------------------------------------

TEST(HllSketchTest, RelativeErrorUnderThreePercentAcrossSweep) {
  // Standard error at p=14 is ~0.8%; 3% is nearly 4 sigma, so this sweep
  // is a real accuracy gate, not a tautology.
  for (const int64_t n : {100LL, 1000LL, 10'000LL, 100'000LL, 1'000'000LL}) {
    stats::HllSketch hll;
    for (int64_t i = 0; i < n; ++i) {
      hll.AddHash(HashInt64(static_cast<uint64_t>(i)));
    }
    const double est = hll.Estimate();
    const double rel = std::abs(est - static_cast<double>(n)) / n;
    EXPECT_LT(rel, 0.03) << "n=" << n << " est=" << est;
  }
}

TEST(HllSketchTest, DuplicatesDoNotInflate) {
  stats::HllSketch hll;
  for (int64_t i = 0; i < 500'000; ++i) {
    hll.AddHash(HashInt64(static_cast<uint64_t>(i % 100)));
  }
  EXPECT_NEAR(hll.Estimate(), 100, 3);
}

TEST(HllSketchTest, ShardMergeMatchesSequentialBitForBit) {
  // Register-wise max is what makes parallel collection deterministic:
  // any partitioning of the input merged in any order must reproduce the
  // sequential registers exactly.
  constexpr int64_t kN = 200'000;
  stats::HllSketch sequential;
  for (int64_t i = 0; i < kN; ++i) {
    sequential.AddHash(HashInt64(static_cast<uint64_t>(i)));
  }
  constexpr int kShards = 7;  // deliberately not a divisor of kN
  std::vector<stats::HllSketch> shards(kShards);
  for (int64_t i = 0; i < kN; ++i) {
    shards[i % kShards].AddHash(HashInt64(static_cast<uint64_t>(i)));
  }
  // Merge back-to-front to exercise a non-insertion order.
  stats::HllSketch merged;
  for (int s = kShards - 1; s >= 0; --s) merged.Merge(shards[s]);
  EXPECT_EQ(merged.registers(), sequential.registers());
  EXPECT_EQ(merged.Estimate(), sequential.Estimate());
}

// ---------------------------------------------------------------------------
// Equi-depth histogram
// ---------------------------------------------------------------------------

TEST(EquiDepthHistogramTest, UniformQuantilesWithinOneBucket) {
  std::vector<double> sample;
  for (int i = 0; i < 10'000; ++i) sample.push_back(i);
  const auto h = stats::EquiDepthHistogram::FromSample(sample, 64);
  ASSERT_FALSE(h.empty());
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 9999);
  // One of 64 buckets holds ~1.6% of the mass; quantiles must land within
  // about one bucket of truth.
  for (int i = 1; i <= 9; ++i) {
    const double q = i / 10.0;
    EXPECT_NEAR(h.Quantile(q), q * 9999, 9999.0 / 32) << "q=" << q;
    EXPECT_NEAR(h.FractionAtMost(q * 9999), q, 1.0 / 32) << "q=" << q;
  }
}

TEST(EquiDepthHistogramTest, PointMassResolvedExactly) {
  // 90% zeros, 10% spread: the duplicate-bound collapse must keep the
  // point mass at 0 visible as the <= / < gap.
  std::vector<double> sample;
  for (int i = 0; i < 9000; ++i) sample.push_back(0);
  for (int i = 0; i < 1000; ++i) sample.push_back(1 + i);
  const auto h = stats::EquiDepthHistogram::FromSample(sample, 64);
  ASSERT_FALSE(h.empty());
  EXPECT_NEAR(h.FractionAtMost(0), 0.9, 1e-9);
  EXPECT_NEAR(h.FractionBelow(0), 0.0, 1e-9);
  EXPECT_NEAR(h.FractionAtMost(1000), 1.0, 0.05);
}

TEST(EquiDepthHistogramTest, EmptyAndSingletonSamples) {
  EXPECT_TRUE(stats::EquiDepthHistogram::FromSample({}, 64).empty());
  const auto h = stats::EquiDepthHistogram::FromSample({42.0}, 64);
  if (!h.empty()) {
    EXPECT_NEAR(h.FractionAtMost(42), 1.0, 1e-9);
    EXPECT_NEAR(h.FractionAtMost(41), 0.0, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// BuildTableStats on real TPC-H data
// ---------------------------------------------------------------------------

TEST(BuildTableStatsTest, LineitemAccuracy) {
  const storage::Table& li = TestDb().table("lineitem");
  const stats::TableStats ts = stats::BuildTableStats(li);
  EXPECT_EQ(ts.row_count, li.num_rows());

  // Key-like column with duplicates (1-7 lineitems per order).
  const stats::ColumnStats* okey = ts.Find("l_orderkey");
  ASSERT_NE(okey, nullptr);
  const double okey_exact =
      static_cast<double>(ExactNdv(li.column("l_orderkey")));
  EXPECT_LT(std::abs(okey->ndv - okey_exact) / okey_exact, 0.03);

  // Low-NDV column: linear counting makes this essentially exact.
  const stats::ColumnStats* flag = ts.Find("l_returnflag");
  ASSERT_NE(flag, nullptr);
  EXPECT_NEAR(flag->ndv, 3, 0.1);
  EXPECT_FALSE(flag->numeric());
  EXPECT_GT(flag->avg_width, 0);

  // Histogram rank accuracy on a date column: the histogram's answer for
  // FractionAtMost must track the exact CDF within a few buckets.
  const stats::ColumnStats* ship = ts.Find("l_shipdate");
  ASSERT_NE(ship, nullptr);
  ASSERT_FALSE(ship->histogram.empty());
  const storage::Column& ship_col = li.column("l_shipdate");
  for (int i = 1; i <= 9; ++i) {
    const double q = i / 10.0;
    const double v = ship->histogram.Quantile(q);
    EXPECT_NEAR(TrueFractionAtMost(ship_col, v), q, 0.05) << "q=" << q;
  }
  // Eager build: min/max are exact.
  double true_min = ValueAt(ship_col, 0), true_max = ValueAt(ship_col, 0);
  for (int64_t r = 1; r < ship_col.size(); ++r) {
    true_min = std::min(true_min, ValueAt(ship_col, r));
    true_max = std::max(true_max, ValueAt(ship_col, r));
  }
  EXPECT_EQ(ship->min_value, true_min);
  EXPECT_EQ(ship->max_value, true_max);
}

TEST(BuildTableStatsTest, BitIdenticalAtAnyThreadCount) {
  const storage::Table& li = TestDb().table("lineitem");
  stats::TableStats base;
  {
    exec::ExecOptions opts;  // sequential
    exec::ScopedExecOptions scope(opts);
    base = stats::BuildTableStats(li);
  }
  for (const int threads : {2, 4, 16}) {
    exec::ExecOptions opts;
    opts.num_threads = threads;
    opts.morsel_rows = 4096;  // force real fan-out at SF 0.01
    exec::ScopedExecOptions scope(opts);
    const stats::TableStats par = stats::BuildTableStats(li);
    ASSERT_EQ(par.columns.size(), base.columns.size());
    for (const auto& [name, cs] : base.columns) {
      const stats::ColumnStats* pc = par.Find(name);
      ASSERT_NE(pc, nullptr) << name;
      SCOPED_TRACE(name + " @" + std::to_string(threads) + " threads");
      // Bit-equal, not approximately equal: shard merge is exact.
      EXPECT_EQ(pc->ndv, cs.ndv);
      EXPECT_EQ(pc->min_value, cs.min_value);
      EXPECT_EQ(pc->max_value, cs.max_value);
      EXPECT_EQ(pc->avg_width, cs.avg_width);
      EXPECT_EQ(pc->sample_rows, cs.sample_rows);
      EXPECT_EQ(pc->histogram.bounds(), cs.histogram.bounds());
    }
  }
}

TEST(BuildTableStatsTest, SampledBuildStaysClose) {
  const storage::Table& li = TestDb().table("lineitem");
  const stats::TableStats eager = stats::BuildTableStats(li);
  stats::StatsBuildOptions opts;
  opts.scan_stride = 16;
  const stats::TableStats sampled = stats::BuildTableStats(li, opts);
  EXPECT_EQ(sampled.row_count, li.num_rows());

  const stats::ColumnStats* se = sampled.Find("l_extendedprice");
  const stats::ColumnStats* ee = eager.Find("l_extendedprice");
  ASSERT_NE(se, nullptr);
  ASSERT_NE(ee, nullptr);
  EXPECT_LT(se->sample_rows, ee->sample_rows);

  // Unique key: a stride sample sees all-distinct values and the linear
  // scale-up reconstructs ~|rows| exactly (the case it is designed for).
  const storage::Table& ord = TestDb().table("orders");
  const stats::TableStats sampled_ord = stats::BuildTableStats(ord, opts);
  const double ord_rows = static_cast<double>(ord.num_rows());
  EXPECT_NEAR(sampled_ord.Find("o_orderkey")->ndv / ord_rows, 1.0, 0.1);

  // FK column with small multiplicity (~4 lineitems per order): a 1/16
  // stride sample cannot distinguish it from a unique key, so the scaled
  // NDV over-estimates — but never below the eager estimate and never
  // above the row count (the documented failure direction; selectivities
  // built on it err toward less filtering, not more).
  const stats::ColumnStats* sk = sampled.Find("l_orderkey");
  const stats::ColumnStats* ek = eager.Find("l_orderkey");
  EXPECT_GE(sk->ndv, 0.9 * ek->ndv);
  EXPECT_LE(sk->ndv, static_cast<double>(li.num_rows()));
  // Low-NDV column: sampling cannot miss any of 3 heavy values.
  EXPECT_NEAR(sampled.Find("l_returnflag")->ndv, 3, 0.1);
}

// ---------------------------------------------------------------------------
// StatsRegistry estimates vs ground truth
// ---------------------------------------------------------------------------

TEST(StatsRegistryTest, SelectivityTracksGroundTruth) {
  stats::StatsRegistry reg;
  reg.Collect(*TestDb().table_ptr("lineitem"));

  const storage::Column& qty = TestDb().table("lineitem").column("l_quantity");
  const double truth = TrueFractionAtMost(qty, 25);
  const double est = reg.EstimateSelectivity(
      "lineitem", {exec::Predicate::CmpF64("l_quantity", exec::CmpOp::kLe, 25)});
  EXPECT_NEAR(est, truth, 0.05);

  // Conjunction under independence: product of marginals.
  const double est2 = reg.EstimateSelectivity(
      "lineitem",
      {exec::Predicate::CmpF64("l_quantity", exec::CmpOp::kLe, 25),
       exec::Predicate::StrEq("l_returnflag", "R")});
  EXPECT_GT(est2, 0);
  EXPECT_LT(est2, est);

  // Unknown table: no knowledge means no reduction assumed.
  EXPECT_EQ(reg.EstimateSelectivity(
                "nope", {exec::Predicate::CmpF64("x", exec::CmpOp::kLe, 1)}),
            1.0);
}

TEST(StatsRegistryTest, ForeignKeyJoinCardinality) {
  stats::StatsRegistry reg;
  reg.Collect(*TestDb().table_ptr("orders"));
  reg.Collect(*TestDb().table_ptr("lineitem"));
  const double li_rows =
      static_cast<double>(TestDb().table("lineitem").num_rows());
  // FK join: every lineitem matches exactly one order, so the true output
  // is |lineitem|. The estimate uses NDV(o_orderkey) ~ |orders|, so it
  // must land within HLL error of the truth.
  const double est = reg.EstimateJoinCardinality(
      "orders", "lineitem", {{"o_orderkey", "l_orderkey"}});
  ASSERT_GT(est, 0);
  EXPECT_GT(est, 0.8 * li_rows);
  EXPECT_LT(est, 1.25 * li_rows);
}

TEST(StatsRegistryTest, GroupByEstimateUsesNdv) {
  stats::StatsRegistry reg;
  reg.Collect(*TestDb().table_ptr("lineitem"));
  const storage::Table& li = TestDb().table("lineitem");
  const exec::ColumnSource src(li);
  // Q1's grouping: 3 flags x 2 statuses -> at most 6 groups (4 real).
  const double est = reg.EstimateGroupRows(
      src, {"l_returnflag", "l_linestatus"}, li.num_rows());
  ASSERT_GT(est, 0);
  EXPECT_LE(est, 10);
}

TEST(StatsRegistryTest, UncollectedTableYieldsNoEstimate) {
  // Estimation never collects: without Collect the registry stays empty
  // and the estimator reports "unknown" (negative).
  stats::StatsRegistry reg;
  const storage::Table& li = TestDb().table("lineitem");
  const exec::ColumnSource src(li);
  const auto pred = exec::Predicate::CmpF64("l_quantity", exec::CmpOp::kLe, 25);
  EXPECT_LT(reg.EstimateFilterRows(src, pred, li.num_rows()), 0);
  EXPECT_EQ(reg.Find("lineitem"), nullptr);

  reg.Collect(*TestDb().table_ptr("lineitem"));
  EXPECT_GE(reg.EstimateFilterRows(src, pred, li.num_rows()), 0);
}

TEST(StatsRegistryTest, ConcurrentCollectAndEstimate) {
  // TSan target: exclusive-lock collection of several tables racing with
  // shared-lock estimation against an already-collected one.
  stats::StatsRegistry reg;
  reg.Collect(*TestDb().table_ptr("lineitem"));
  const std::vector<std::string> to_collect = {"orders", "customer", "part",
                                               "supplier", "nation", "region"};
  std::vector<std::thread> workers;
  for (const auto& name : to_collect) {
    workers.emplace_back(
        [&reg, name] { reg.Collect(*TestDb().table_ptr(name)); });
  }
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < 200; ++i) {
        const double est = reg.EstimateSelectivity(
            "lineitem",
            {exec::Predicate::CmpF64("l_quantity", exec::CmpOp::kLe, 25)});
        ASSERT_GE(est, 0);
        ASSERT_LE(est, 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& name : to_collect) {
    EXPECT_NE(reg.Find(name), nullptr) << name;
  }
}

// ---------------------------------------------------------------------------
// Cardinality capture end to end
// ---------------------------------------------------------------------------

void ExpectRelationsIdentical(const exec::Relation& a,
                              const exec::Relation& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  const int64_t n = a.num_rows();
  for (int c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.name(c), b.name(c));
    const auto& ca = a.column(c);
    const auto& cb = b.column(c);
    ASSERT_EQ(ca.type(), cb.type()) << "column " << a.name(c);
    for (int64_t r = 0; r < n; ++r) {
      switch (ca.type()) {
        case storage::DataType::kInt64:
          ASSERT_EQ(ca.I64Data()[r], cb.I64Data()[r]) << a.name(c) << " " << r;
          break;
        case storage::DataType::kFloat64:
          ASSERT_EQ(ca.F64Data()[r], cb.F64Data()[r]) << a.name(c) << " " << r;
          break;
        case storage::DataType::kString:
          ASSERT_EQ(ca.StringAt(r), cb.StringAt(r)) << a.name(c) << " " << r;
          break;
        default:
          ASSERT_EQ(ca.I32Data()[r], cb.I32Data()[r]) << a.name(c) << " " << r;
          break;
      }
    }
  }
}

TEST(CardinalityCaptureTest, AllQueriesBitIdenticalWithEstimator) {
  stats::StatsRegistry reg;
  reg.CollectDatabase(TestDb());
  for (int q = 1; q <= 22; ++q) {
    SCOPED_TRACE("Q" + std::to_string(q));
    engine::Executor plain;
    plain.set_num_threads(2);
    exec::QueryStats plain_stats;
    const exec::Relation without = plain.Run(
        [&](exec::QueryStats* s) { return tpch::RunQuery(q, TestDb(), s); },
        &plain_stats);

    engine::Executor ex;
    ex.set_num_threads(2);
    ex.set_cardinality_estimator(&reg);
    exec::QueryStats stats;
    const exec::Relation with = ex.Run(
        [&](exec::QueryStats* s) { return tpch::RunQuery(q, TestDb(), s); },
        &stats);

    ExpectRelationsIdentical(with, without);

    // No estimator installed -> est_rows stays -1 everywhere.
    for (const auto& op : plain_stats.ops) {
      ASSERT_EQ(op.est_rows, -1) << op.op;
    }
    // Estimator installed -> every query has estimated operators.
    const obs::CardinalityReport rep = obs::CardinalityResiduals(stats);
    EXPECT_GT(rep.estimated, 0);
    EXPECT_GE(rep.recorded, rep.estimated);
    EXPECT_GE(rep.max_q, 1);
  }
}

TEST(CardinalityCaptureTest, FilterRecordsInputAndOutputRows) {
  engine::Executor ex;
  exec::QueryStats stats;
  ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(6, TestDb(), s); },
         &stats);
  bool found = false;
  for (const auto& op : stats.ops) {
    if (op.op.rfind("filter(", 0) == 0) {
      found = true;
      EXPECT_GE(op.rows_in, 0) << op.op;
      EXPECT_GE(op.rows_out, 0) << op.op;
      EXPECT_LE(op.rows_out, op.rows_in) << op.op;
    }
  }
  EXPECT_TRUE(found) << "Q6 produced no filter OpStats";
}

// ---------------------------------------------------------------------------
// Q-error residuals
// ---------------------------------------------------------------------------

TEST(QErrorTest, Definition) {
  EXPECT_EQ(obs::QError(10, 5), 2);
  EXPECT_EQ(obs::QError(5, 10), 2);
  EXPECT_EQ(obs::QError(7, 7), 1);
  // Zero-row sides clamp to one row instead of producing infinities.
  EXPECT_EQ(obs::QError(0, 0), 1);
  EXPECT_EQ(obs::QError(0, 50), 50);
  EXPECT_EQ(obs::QError(50, 0), 50);
}

exec::QueryStats SyntheticStats() {
  exec::QueryStats qs;
  exec::OpStats scan;
  scan.op = "scan(lineitem)";
  scan.rows_in = 1000;
  scan.rows_out = 1000;  // recorded, never estimated
  qs.Add(scan);
  exec::OpStats f1;
  f1.op = "filter(l_shipdate)";
  f1.rows_in = 1000;
  f1.rows_out = 100;
  f1.est_rows = 200;  // Q = 2
  qs.Add(f1);
  exec::OpStats f2;
  f2.op = "filter(l_quantity)";
  f2.rows_in = 1000;
  f2.rows_out = 500;
  f2.est_rows = 125;  // Q = 4, worst
  qs.Add(f2);
  exec::OpStats join;
  join.op = "hash_probe(orders)";
  join.rows_in = 100;
  join.rows_out = 100;
  join.est_rows = 100;  // Q = 1
  qs.Add(join);
  return qs;
}

TEST(CardinalityResidualsTest, AggregatesPerClass) {
  const obs::CardinalityReport rep =
      obs::CardinalityResiduals(SyntheticStats(), "synthetic");
  EXPECT_EQ(rep.label, "synthetic");
  EXPECT_EQ(rep.recorded, 4);
  EXPECT_EQ(rep.estimated, 3);
  EXPECT_EQ(rep.max_q, 4);
  // geomean over {2, 4, 1} = 2
  EXPECT_NEAR(rep.geomean_q, 2.0, 1e-9);
  ASSERT_FALSE(rep.classes.empty());
  // Classes sorted by max_q descending: filter (4) first.
  EXPECT_EQ(rep.classes.front().op_class, "filter");
  EXPECT_EQ(rep.classes.front().ops, 2);
  EXPECT_EQ(rep.classes.front().max_q, 4);
  EXPECT_EQ(rep.classes.front().worst.op, "filter(l_quantity)");
  // Entries worst-first.
  ASSERT_EQ(rep.entries.size(), 3u);
  EXPECT_EQ(rep.entries.front().q_error, 4);
  // The report renders without crashing and names the worst offender.
  EXPECT_NE(rep.Format().find("filter"), std::string::npos);
}

TEST(CardinalityResidualsTest, QErrorInvariantUnderScale) {
  // SF projection scales est and actual together, so plan quality must
  // read the same after QueryStats::Scale.
  exec::QueryStats qs = SyntheticStats();
  const obs::CardinalityReport before = obs::CardinalityResiduals(qs);
  qs.Scale(10);
  const obs::CardinalityReport after = obs::CardinalityResiduals(qs);
  EXPECT_EQ(after.recorded, before.recorded);
  EXPECT_EQ(after.estimated, before.estimated);
  EXPECT_EQ(after.max_q, before.max_q);
  EXPECT_NEAR(after.geomean_q, before.geomean_q, 1e-12);
}

TEST(CardinalityResidualsTest, NoEstimatesProducesEmptyReport) {
  exec::QueryStats qs;
  exec::OpStats scan;
  scan.op = "scan(lineitem)";
  scan.rows_in = 10;
  scan.rows_out = 10;
  qs.Add(scan);
  const obs::CardinalityReport rep = obs::CardinalityResiduals(qs);
  EXPECT_EQ(rep.recorded, 1);
  EXPECT_EQ(rep.estimated, 0);
  EXPECT_EQ(rep.max_q, 1);
  EXPECT_TRUE(rep.classes.empty());
  EXPECT_FALSE(rep.Format().empty());
}

TEST(CardinalityMetricsTest, PublishesAndExposes) {
  obs::MetricsRegistry::Global().ResetForTesting();
  const obs::CardinalityReport rep =
      obs::CardinalityResiduals(SyntheticStats());
  obs::RecordCardinalityMetrics(rep);

  const auto scalars = obs::MetricsRegistry::Global().ScalarSnapshot();
  const auto find = [&](const std::string& k) {
    const auto it = scalars.find(k);
    return it == scalars.end() ? -1.0 : it->second;
  };
  EXPECT_EQ(find("stats.qerror.ops.recorded"), 4);
  EXPECT_EQ(find("stats.qerror.ops.estimated"), 3);
  EXPECT_EQ(find("stats.qerror.max"), 4);

  // Max gauge is monotone across reports.
  exec::QueryStats mild;
  exec::OpStats op;
  op.op = "filter(x)";
  op.rows_in = 10;
  op.rows_out = 10;
  op.est_rows = 10;
  mild.Add(op);
  obs::RecordCardinalityMetrics(obs::CardinalityResiduals(mild));
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .ScalarSnapshot()
                .at("stats.qerror.max"),
            4);

  // The exposition writer renders the Q-error histogram family and the
  // parser reads it back.
  const std::string text = obs::ExpositionFormat::WriteGlobal();
  EXPECT_NE(text.find("wimpi_stats_qerror_bucket"), std::string::npos);
  EXPECT_NE(text.find("wimpi_stats_qerror_class_filter"), std::string::npos);
  std::vector<obs::ExpositionSample> samples;
  std::string error;
  ASSERT_TRUE(obs::ExpositionFormat::Parse(text, &samples, &error)) << error;
  obs::MetricsRegistry::Global().ResetForTesting();
}

}  // namespace
}  // namespace wimpi
