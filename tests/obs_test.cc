// Unit tests for the observability subsystem: metrics registry, Chrome
// trace JSON, operator profiler tree, and cost-model residuals.
#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "exec/counters.h"
#include "exec/exec_options.h"
#include "gtest/gtest.h"
#include "hw/cost_model.h"
#include "hw/host_anchor.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/residual.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

// ---------- Metrics ----------

TEST(Metrics, CounterAndGauge) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Add(5);
  c.Add(7);
  EXPECT_EQ(c.Value(), 12);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);

  obs::Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.Value(), 3.5);
  g.Set(-1);
  EXPECT_DOUBLE_EQ(g.Value(), -1);
}

TEST(Metrics, HistogramBasics) {
  obs::Histogram h({1, 10, 100, 1000});
  EXPECT_EQ(h.Count(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0);

  for (const double v : {0.5, 5.0, 5.0, 50.0, 500.0, 5000.0}) h.Record(v);
  EXPECT_EQ(h.Count(), 6);
  EXPECT_DOUBLE_EQ(h.Sum(), 5560.5);
  EXPECT_DOUBLE_EQ(h.Min(), 0.5);
  EXPECT_DOUBLE_EQ(h.Max(), 5000.0);
  const std::vector<int64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 5u);  // 4 bounds + overflow
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(counts[4], 1);

  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  EXPECT_DOUBLE_EQ(h.Sum(), 0);
}

TEST(Metrics, HistogramPercentilesOrderedAndBounded) {
  obs::Histogram h(obs::Histogram::DefaultLatencyBoundsUs());
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  const double p50 = h.Percentile(0.5);
  const double p95 = h.Percentile(0.95);
  const double p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Estimates stay inside the observed range (no bucket-edge overshoot).
  EXPECT_GE(p50, h.Min());
  EXPECT_LE(p99, h.Max());
  // And are in the right ballpark for a uniform 1..1000 sample.
  EXPECT_GT(p50, 100);
  EXPECT_LT(p50, 1000);
  EXPECT_GT(p99, 500);
}

TEST(Metrics, RegistryStableReferencesAndReset) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& a = reg.counter("test.obs.counter");
  obs::Counter& b = reg.counter("test.obs.counter");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.Value(), 3);

  obs::Histogram& h = reg.histogram("test.obs.hist");
  h.Record(42);
  const auto snap = reg.ScalarSnapshot();
  EXPECT_DOUBLE_EQ(snap.at("test.obs.counter"), 3);
  EXPECT_DOUBLE_EQ(snap.at("test.obs.hist.count"), 1);

  const std::string text = reg.FormatText();
  EXPECT_NE(text.find("test.obs.counter 3"), std::string::npos);
  EXPECT_NE(text.find("test.obs.hist"), std::string::npos);

  reg.Reset();
  EXPECT_EQ(a.Value(), 0);
  EXPECT_EQ(h.Count(), 0);
}

// ---------- Trace ----------
// (JSON escaping itself is covered in common_test.cc; the escape helper
// lives in common/json.h now.)

TEST(Trace, SpansAndJsonShape) {
  std::vector<obs::TraceEvent> events(2);
  events[0].name = "outer \"quoted\"";
  events[0].dur_us = 10;
  events[0].trace_id = 5;
  events[0].span_id = 1;
  events[1].name = "inner";
  events[1].ts_us = 2;
  events[1].dur_us = 3;
  events[1].trace_id = 5;
  events[1].span_id = 2;
  events[1].parent_id = 1;
  events[1].args_json = "{\"morsel\":3,\"rows\":65536}";

  const std::string json = obs::TraceEventsToJson(events);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Caller args are merged behind the span ids inside the same object.
  EXPECT_NE(json.find("\"span\":\"2\",\"parent\":\"1\",\"morsel\":3,"
                      "\"rows\":65536}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"trace\":\"5\""), std::string::npos);
  // The root has no parent field.
  EXPECT_EQ(json.find("\"parent\":\"0\""), std::string::npos);
  // The quote in the name is escaped — the raw sequence `r "q` would break
  // the JSON string literal.
  EXPECT_NE(json.find("outer \\\"quoted\\\""), std::string::npos);
}

// ---------- Profiler ----------

TEST(Profiler, InactiveScopesAreNoops) {
  EXPECT_FALSE(obs::ProfilerActive());
  obs::OpScope scope("Filter", 100);
  EXPECT_FALSE(scope.active());
  EXPECT_STREQ(obs::CurrentOpLabel(), "plan");
}

TEST(Profiler, TreeStructureAndStatsAttribution) {
  obs::QueryProfile profile;
  exec::QueryStats stats;
  {
    obs::ScopedProfiling prof({}, &profile, "unit");
    EXPECT_TRUE(obs::ProfilerActive());
    {
      obs::OpScope outer("HashJoin", 1000);
      EXPECT_TRUE(outer.active());
      EXPECT_STREQ(obs::CurrentOpLabel(), "HashJoin");
      {
        obs::OpScope build("hash_build", 400);
        exec::OpStats s;
        s.op = "hash_build";
        s.compute_ops = 123;
        stats.Add(std::move(s));  // lands on the innermost scope
        obs::NoteParallelPhase(4, 7);
      }
      outer.set_rows_out(50);
    }
    {
      obs::OpScope top("Filter", 1000);
      top.set_rows_out(10);
    }
    // Recorded outside any OpScope: attributed to the root (plan glue).
    exec::OpStats glue;
    glue.op = "glue";
    stats.Add(std::move(glue));
  }
  EXPECT_FALSE(obs::ProfilerActive());

  EXPECT_EQ(profile.root.name, "unit");
  ASSERT_EQ(profile.root.children.size(), 2u);
  const obs::ProfileNode& join = *profile.root.children[0];
  EXPECT_EQ(join.name, "HashJoin");
  EXPECT_EQ(join.rows_in, 1000);
  EXPECT_EQ(join.rows_out, 50);
  ASSERT_EQ(join.children.size(), 1u);
  const obs::ProfileNode& build = *join.children[0];
  EXPECT_EQ(build.name, "hash_build");
  EXPECT_EQ(build.threads, 4);
  EXPECT_EQ(build.morsels, 7);
  ASSERT_EQ(build.op_stats.size(), 1u);
  EXPECT_EQ(build.op_stats[0].op, "hash_build");
  EXPECT_DOUBLE_EQ(build.op_stats[0].compute_ops, 123);
  EXPECT_TRUE(join.op_stats.empty());
  ASSERT_EQ(profile.root.op_stats.size(), 1u);
  EXPECT_EQ(profile.root.op_stats[0].op, "glue");

  // Wall-clock accounting is hierarchical and non-negative.
  EXPECT_GE(profile.wall_seconds, profile.OperatorSeconds());
  EXPECT_GE(join.wall_seconds, join.ChildSeconds());
  EXPECT_GE(build.wall_seconds, 0);

  // The QueryStats single stream is untouched by attribution.
  ASSERT_EQ(stats.ops.size(), 2u);
  EXPECT_EQ(stats.ops[0].op, "hash_build");
  EXPECT_EQ(stats.ops[1].op, "glue");

  const std::string tree = profile.FormatTree();
  EXPECT_NE(tree.find("HashJoin"), std::string::npos);
  EXPECT_NE(tree.find("hash_build"), std::string::npos);
  EXPECT_NE(tree.find("rows 1000->50"), std::string::npos);
  EXPECT_NE(tree.find("threads 4"), std::string::npos);
  EXPECT_NE(tree.find("wall "), std::string::npos);
}

// A real profiled query: the tree's operator time must account for most of
// the measured wall time (the acceptance bar is 20% glue; we assert half to
// stay robust on loaded CI machines).
TEST(Profiler, OperatorTimeCoversQueryWall) {
  tpch::GenOptions gen;
  gen.scale_factor = 0.05;
  const engine::Database db = tpch::GenerateDatabase(gen);

  engine::Executor ex;
  obs::QueryProfile profile;
  exec::QueryStats stats;
  const exec::Relation r = ex.RunProfiled(
      [&](exec::QueryStats* s) { return tpch::RunQuery(1, db, s); },
      obs::ProfileOptions{}, &profile, &stats, "Q1");
  EXPECT_EQ(r.num_rows(), 4);

  EXPECT_GT(profile.wall_seconds, 0);
  EXPECT_FALSE(profile.root.children.empty());
  const double op_s = profile.OperatorSeconds();
  EXPECT_LE(op_s, profile.wall_seconds);
  EXPECT_GE(op_s, 0.5 * profile.wall_seconds)
      << profile.FormatTree();

  // Every OpStats the query recorded is attributed somewhere in the tree.
  std::function<size_t(const obs::ProfileNode&)> count_stats =
      [&](const obs::ProfileNode& n) {
        size_t c = n.op_stats.size();
        for (const auto& ch : n.children) c += count_stats(*ch);
        return c;
      };
  EXPECT_EQ(count_stats(profile.root), stats.ops.size());
}

// ---------- Residuals ----------

TEST(Residuals, ReportSharesAndAnchor) {
  tpch::GenOptions gen;
  gen.scale_factor = 0.02;
  const engine::Database db = tpch::GenerateDatabase(gen);

  engine::Executor ex;
  const hw::CostModel model;
  const hw::HardwareProfile host = hw::HostProfile();

  for (const int q : {1, 6}) {
    obs::QueryProfile profile;
    exec::QueryStats stats;  // OpStats only exist when the plan records them
    ex.RunProfiled(
        [&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); },
        obs::ProfileOptions{}, &profile, &stats, "Q" + std::to_string(q));

    const obs::ResidualReport report =
        obs::CostModelResiduals(profile, model, host, 1);
    EXPECT_FALSE(report.entries.empty()) << "Q" << q;
    EXPECT_GT(report.anchor, 0) << "Q" << q;
    EXPECT_GT(report.measured_total_seconds, 0) << "Q" << q;
    EXPECT_GT(report.modeled_total_seconds, 0) << "Q" << q;

    double measured_share = 0, modeled_share = 0, anchored_total = 0;
    for (const auto& e : report.entries) {
      measured_share += e.measured_share;
      modeled_share += e.modeled_share;
      anchored_total += e.anchored_model_seconds;
      EXPECT_NEAR(e.residual_seconds,
                  e.measured_seconds - e.anchored_model_seconds, 1e-12);
    }
    EXPECT_NEAR(measured_share, 1.0, 1e-9) << "Q" << q;
    EXPECT_NEAR(modeled_share, 1.0, 1e-9) << "Q" << q;
    // The anchor makes modeled and measured totals agree by construction.
    EXPECT_NEAR(anchored_total, report.measured_total_seconds,
                1e-9 * std::max(1.0, report.measured_total_seconds))
        << "Q" << q;

    const std::string text = report.Format();
    EXPECT_NE(text.find("op class"), std::string::npos);
    EXPECT_NE(text.find("anchor"), std::string::npos);
  }
}

}  // namespace
}  // namespace wimpi
