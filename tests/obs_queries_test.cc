// Profiling must be an observer, not a participant: running any TPC-H
// query with full profiling enabled (operator tree + pool metrics) must
// produce bit-identical results to the unprofiled engine at every thread
// count. Also smoke-checks the artifacts a profiled run produces end to
// end: tree shape, rendered trace, residual report.
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "exec/exec_options.h"
#include "gtest/gtest.h"
#include "hw/cost_model.h"
#include "hw/host_anchor.h"
#include "obs/clock.h"
#include "obs/flight/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/residual.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

const engine::Database& TestDb() {
  static engine::Database* db = nullptr;
  if (db == nullptr) {
    tpch::GenOptions opts;
    opts.scale_factor = 0.01;
    db = new engine::Database(tpch::GenerateDatabase(opts));
  }
  return *db;
}

std::vector<int> ThreadCounts() {
  const int hc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> counts = {1, 2, 4};
  if (hc != 1 && hc != 2 && hc != 4) counts.push_back(hc);
  return counts;
}

// Exact (bit-level) relation comparison, same bar as parallel_queries_test:
// profiled and unprofiled runs must not differ in a single bit.
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
          ASSERT_EQ(ca.I64Data()[r], cb.I64Data()[r])
              << a.name(c) << " row " << r;
          break;
        case storage::DataType::kFloat64:
          ASSERT_EQ(ca.F64Data()[r], cb.F64Data()[r])
              << a.name(c) << " row " << r;
          break;
        case storage::DataType::kString:
          ASSERT_EQ(ca.StringAt(r), cb.StringAt(r))
              << a.name(c) << " row " << r;
          break;
        default:
          ASSERT_EQ(ca.I32Data()[r], cb.I32Data()[r])
              << a.name(c) << " row " << r;
          break;
      }
    }
  }
}

obs::ProfileOptions FullProfiling() {
  obs::ProfileOptions popts;
  popts.operator_profile = true;
  popts.pool_metrics = true;
  return popts;
}

class ObsQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(ObsQueryTest, ProfiledRunIsBitIdenticalAtEveryThreadCount) {
  const int q = GetParam();
  const engine::Database& db = TestDb();

  for (const int threads : ThreadCounts()) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    engine::Executor ex;
    ex.set_num_threads(threads);
    // Small morsels force real fan-out even at SF 0.01.
    ex.set_morsel_rows(4096);

    const exec::Relation plain =
        ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); });

    obs::QueryProfile profile;
    exec::QueryStats stats;
    const exec::Relation profiled = ex.RunProfiled(
        [&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); },
        FullProfiling(), &profile, &stats, "Q" + std::to_string(q));

    ExpectRelationsIdentical(profiled, plain);

    // The profiled run really produced a tree.
    EXPECT_FALSE(profile.root.children.empty());
    EXPECT_GT(profile.wall_seconds, 0);
    EXPECT_LE(profile.OperatorSeconds(), profile.wall_seconds);

    // Profiling is fully torn down afterwards.
    EXPECT_FALSE(obs::ProfilerActive());
    EXPECT_FALSE(obs::PoolMetricsEnabled());
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ObsQueryTest, ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// Appends `n`'s subtree to `out` in pre-order (the renderer's span order).
void PreOrder(const obs::ProfileNode& n,
              std::vector<const obs::ProfileNode*>* out) {
  out->push_back(&n);
  for (const auto& c : n.children) PreOrder(*c, out);
}

TEST(ObsQueries, TraceCapturesMorselSpans) {
  const engine::Database& db = TestDb();
  engine::Executor ex;
  ex.set_num_threads(4);
  ex.set_morsel_rows(4096);

  auto& flight = obs::flight::FlightRecorder::Global();
  ASSERT_TRUE(flight.enabled());
  obs::QueryProfile profile;
  const int64_t start_us = obs::NowMicros();
  ex.RunProfiled(
      [&](exec::QueryStats* s) { return tpch::RunQuery(6, db, s); },
      obs::ProfileOptions{}, &profile, nullptr, "Q6");

  // Op spans: one per profile node, parent ids following the tree.
  const std::vector<obs::TraceEvent> ops = profile.ToTraceEvents(7);
  std::vector<const obs::ProfileNode*> nodes;
  PreOrder(profile.root, &nodes);
  ASSERT_EQ(ops.size(), nodes.size());
  std::map<const obs::ProfileNode*, size_t> index;
  for (size_t i = 0; i < ops.size(); ++i) {
    index[nodes[i]] = i;
    EXPECT_EQ(ops[i].name, nodes[i]->name);
    EXPECT_EQ(ops[i].trace_id, 7u);
    EXPECT_EQ(ops[i].tid, profile.tid);
    EXPECT_EQ(ops[i].ts_us, nodes[i]->start_us);
    EXPECT_GE(ops[i].dur_us, 0);
  }
  EXPECT_EQ(ops[0].parent_id, 0u);
  EXPECT_EQ(ops[0].category, std::string("query"));
  for (size_t i = 0; i < ops.size(); ++i) {
    for (const auto& c : nodes[i]->children) {
      EXPECT_EQ(ops[index.at(c.get())].parent_id, ops[i].span_id)
          << c->name << " under " << nodes[i]->name;
    }
  }

  // Morsel spans render from the flight rings with their durations.
  // (Which tid executes a morsel is scheduler-dependent — at this scale
  // the query thread may claim them all — so only the shape is checked.)
  const std::vector<obs::TraceEvent> flight_events =
      obs::flight::FlightRecorder::ToTraceEvents(
          flight.SnapshotSince(start_us));
  size_t morsel_spans = 0;
  for (const auto& e : flight_events) {
    if (e.category != std::string("flight.morsel")) continue;
    ++morsel_spans;
    EXPECT_EQ(e.phase, 'X');
    EXPECT_GE(e.ts_us, start_us);
    EXPECT_GE(e.dur_us, 0);
    EXPECT_GE(e.tid, 0);
    EXPECT_NE(e.args_json.find("\"rows\":"), std::string::npos);
  }
  EXPECT_GT(morsel_spans, 1u);

  std::vector<obs::TraceEvent> all = ops;
  all.insert(all.end(), flight_events.begin(), flight_events.end());
  const std::string json = obs::TraceEventsToJson(all);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 1), "}");
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(ObsQueries, PoolMetricsCountTasks) {
  const engine::Database& db = TestDb();
  auto& reg = obs::MetricsRegistry::Global();
  reg.ResetForTesting();

  engine::Executor ex;
  ex.set_num_threads(4);
  ex.set_morsel_rows(4096);
  obs::ProfileOptions popts;
  popts.pool_metrics = true;
  obs::QueryProfile profile;
  ex.RunProfiled(
      [&](exec::QueryStats* s) { return tpch::RunQuery(1, db, s); }, popts,
      &profile, nullptr, "Q1");

  const auto snap = reg.ScalarSnapshot();
  const auto tasks = snap.find("pool.tasks");
  ASSERT_NE(tasks, snap.end());
  EXPECT_GT(tasks->second, 0);
  const auto waits = snap.find("pool.task.queue_wait_us.count");
  ASSERT_NE(waits, snap.end());
  EXPECT_GT(waits->second, 0);
  reg.ResetForTesting();
}

TEST(ObsQueries, ResidualReportForPaperHeadlineQueries) {
  const engine::Database& db = TestDb();
  const hw::CostModel model;
  const hw::HardwareProfile host = hw::HostProfile();

  for (const int q : {1, 6}) {
    SCOPED_TRACE("Q" + std::to_string(q));
    engine::Executor ex;
    ex.set_num_threads(2);
    obs::QueryProfile profile;
    exec::QueryStats stats;  // residuals need the plan's OpStats
    ex.RunProfiled(
        [&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); },
        obs::ProfileOptions{}, &profile, &stats, "Q" + std::to_string(q));

    const obs::ResidualReport report =
        obs::CostModelResiduals(profile, model, host, 2);
    EXPECT_EQ(report.threads, 2);
    EXPECT_FALSE(report.entries.empty());
    EXPECT_GT(report.anchor, 0);
    const std::string text = report.Format();
    EXPECT_NE(text.find("Q" + std::to_string(q)), std::string::npos);
  }
}

}  // namespace
}  // namespace wimpi
