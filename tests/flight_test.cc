// Flight recorder, per-query resource accounting plumbing, slow-query log
// and SLO tracker (ISSUE #7). The service-level integration case verifies
// the tail-based trigger path end to end: a slow query retroactively
// yields a parseable Chrome trace dump plus a slow-query-log entry.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "engine/executor.h"
#include "exec/morsel_exec.h"
#include "gtest/gtest.h"
#include "obs/clock.h"
#include "obs/flight/flight_recorder.h"
#include "obs/flight/slow_query_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "service/slo_tracker.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

namespace flight = obs::flight;
using flight::EventKind;
using flight::FlightEvent;
using flight::FlightRecorder;

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(FlightRecorderTest, RecordSnapshotDecode) {
  auto& rec = FlightRecorder::Global();
  rec.set_enabled(true);
  const uint64_t q = 0xABCDEF;  // unlikely to collide with service ids
  FlightRecorder::Record(EventKind::kQuerySubmit, q, 1000, 4096);
  FlightRecorder::Record(EventKind::kQueryFinish, q, 0, 777);

  const auto events = rec.Snapshot();
  const FlightEvent* submit = nullptr;
  const FlightEvent* finish = nullptr;
  for (const auto& e : events) {
    if (e.query != q) continue;
    if (e.kind == EventKind::kQuerySubmit) submit = &e;
    if (e.kind == EventKind::kQueryFinish) finish = &e;
  }
  ASSERT_NE(submit, nullptr);
  ASSERT_NE(finish, nullptr);
  EXPECT_EQ(submit->a, 1000);
  EXPECT_EQ(submit->b, 4096);
  EXPECT_EQ(finish->b, 777);
  EXPECT_GT(submit->ts_us, 0);
  EXPECT_LE(submit->ts_us, finish->ts_us);
  // Snapshot is merged oldest-first.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

TEST(FlightRecorderTest, DisabledRecordsNothing) {
  auto& rec = FlightRecorder::Global();
  rec.set_enabled(false);
  const int64_t before = rec.TotalRecorded();
  FlightRecorder::Record(EventKind::kPoolTask, 0, 1, 2);
  EXPECT_EQ(rec.TotalRecorded(), before);
  rec.set_enabled(true);
  FlightRecorder::Record(EventKind::kPoolTask, 0, 1, 2);
  EXPECT_EQ(rec.TotalRecorded(), before + 1);
}

TEST(FlightRecorderTest, RingWrapKeepsNewestAndCountsDrops) {
  auto& rec = FlightRecorder::Global();
  rec.set_enabled(true);
  rec.set_ring_capacity(64);
  // A fresh thread gets a fresh (small) ring; overflow it.
  std::thread t([&] {
    for (int i = 0; i < 200; ++i) {
      FlightRecorder::Record(EventKind::kMorselBatch, 0x77AA, i, i);
    }
  });
  t.join();
  rec.set_ring_capacity(8192);  // restore for later rings

  int resident = 0;
  int max_a = -1;
  for (const auto& e : rec.Snapshot()) {
    if (e.query == 0x77AA) {
      ++resident;
      max_a = std::max(max_a, static_cast<int>(e.a));
    }
  }
  EXPECT_LE(resident, 64);
  EXPECT_GT(resident, 0);
  EXPECT_EQ(max_a, 199);  // newest history wins
  EXPECT_GT(rec.TotalDropped(), 0);
}

TEST(FlightRecorderTest, SnapshotSinceFiltersWindow) {
  auto& rec = FlightRecorder::Global();
  rec.set_enabled(true);
  FlightRecorder::Record(EventKind::kPoolTask, 0x5151, 1, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const int64_t cut = obs::NowMicros();
  FlightRecorder::Record(EventKind::kPoolTask, 0x5151, 2, 0);

  int before = 0, after = 0;
  for (const auto& e : rec.SnapshotSince(cut)) {
    if (e.query != 0x5151) continue;
    (e.a == 1 ? before : after)++;
  }
  EXPECT_EQ(before, 0);
  EXPECT_EQ(after, 1);
}

TEST(FlightRecorderTest, ChromeTraceBuildsQueryAndPipelineSpans) {
  // Synthetic lifecycle: submit/admit/finish plus one pipeline pair.
  std::vector<FlightEvent> events;
  auto add = [&](int64_t ts, EventKind k, uint64_t q, int32_t a, int64_t b,
                 int tid) {
    FlightEvent e;
    e.ts_us = ts;
    e.kind = k;
    e.query = q;
    e.a = a;
    e.b = b;
    e.tid = tid;
    events.push_back(e);
  };
  add(100, EventKind::kQuerySubmit, 42, 1000, 0, 0);
  add(110, EventKind::kQueryAdmit, 42, 1, 10, 1);
  // One span record per pipeline: 30 us long, 8 morsels, 2048 rows.
  add(120, EventKind::kPipeline, 42, 8, (int64_t{30} << 32) | 2048, 1);
  add(160, EventKind::kQueryFinish, 42, 0, 60, 1);

  const std::string json =
      obs::TraceEventsToJson(FlightRecorder::ToTraceEvents(events));
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(json, &doc, &error)) << error << "\n" << json;
  const JsonValue* trace_events = doc.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);

  bool query_span = false, pipeline_span = false;
  int instants = 0;
  for (const JsonValue& e : trace_events->AsArray()) {
    const std::string cat = e.GetString("cat", "");
    if (cat == "flight.query" && e.GetString("ph", "") == "X") {
      query_span = true;
      EXPECT_EQ(e.GetDouble("ts", 0), 100);
      EXPECT_EQ(e.GetDouble("dur", 0), 60);
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->GetDouble("query", 0), 42);
    }
    if (cat == "flight.pipeline" && e.GetString("ph", "") == "X") {
      pipeline_span = true;
      EXPECT_EQ(e.GetDouble("ts", 0), 120);
      EXPECT_EQ(e.GetDouble("dur", 0), 30);
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->GetDouble("query", 0), 42);
      EXPECT_EQ(args->GetDouble("morsels", 0), 8);
      EXPECT_EQ(args->GetDouble("rows", 0), 2048);
    }
    if (cat == "flight.event") {
      // Instants come in record order and carry the whole record.
      ASSERT_LT(instants, static_cast<int>(events.size()));
      const FlightEvent& rec = events[static_cast<size_t>(instants++)];
      EXPECT_EQ(e.GetString("name", ""), flight::EventKindName(rec.kind));
      EXPECT_EQ(e.GetDouble("ts", 0), rec.ts_us);
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->GetDouble("query", -1), static_cast<double>(rec.query));
      EXPECT_EQ(args->GetDouble("a", -1), rec.a);
      EXPECT_EQ(args->GetDouble("b", -1), rec.b);
    }
  }
  EXPECT_TRUE(query_span);
  EXPECT_TRUE(pipeline_span);
  EXPECT_EQ(instants, static_cast<int>(events.size()));
}

// The scheduler's sequential path (one thread, one morsel, or already on
// a pool worker) records the same pipeline and morsel spans as the
// parallel one, so a 1-thread query is not invisible in flight dumps.
TEST(FlightRecorderTest, SequentialPipelinesRecordSpans) {
  FlightRecorder::Global().set_enabled(true);
  tpch::GenOptions gen;
  gen.scale_factor = 0.01;
  const engine::Database db = tpch::GenerateDatabase(gen);
  engine::Executor ex;
  ex.set_num_threads(1);
  const int64_t since = obs::NowMicros();
  ex.Run([&](exec::QueryStats* st) { return tpch::RunQuery(6, db, st); });

  int pipelines = 0, morsels = 0;
  for (const obs::TraceEvent& e :
       FlightRecorder::ToTraceEvents(FlightRecorder::Global().SnapshotSince(
           since))) {
    if (e.phase != 'X') continue;
    if (std::string(e.category) == "flight.pipeline") ++pipelines;
    if (std::string(e.category) == "flight.morsel") ++morsels;
  }
  EXPECT_GE(pipelines, 1);
  EXPECT_GE(morsels, 1);
}

TEST(SlowQueryLogTest, BoundedRingAndJsonl) {
  auto& log = flight::SlowQueryLog::Global();
  log.Clear();
  log.set_capacity(4);
  const int64_t total_before = log.total();
  for (int i = 0; i < 10; ++i) {
    flight::SlowQueryEntry e;
    e.ts_us = 1000 + i;
    e.label = "q" + std::to_string(i);
    e.status = "OK";
    e.trigger = "latency";
    e.report.query_id = static_cast<uint64_t>(i + 1);
    e.report.wall_us = 100 + i;
    log.Append(e);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total(), total_before + 10);
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().label, "q6");  // oldest evicted
  EXPECT_EQ(snap.back().label, "q9");

  const std::string jsonl = log.ToJsonl();
  size_t start = 0;
  int lines = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    if (!line.empty()) {
      ++lines;
      JsonValue v;
      std::string error;
      ASSERT_TRUE(JsonValue::Parse(line, &v, &error)) << error;
      for (const char* key : {"ts_us", "query", "label", "status", "trigger",
                              "wall_us", "cpu_us"}) {
        EXPECT_NE(v.Find(key), nullptr) << key;
      }
    }
    start = end + 1;
  }
  EXPECT_EQ(lines, 4);
  log.set_capacity(256);
  log.Clear();
}

TEST(SloTrackerTest, AttainmentAndBurnRate) {
  service::SloOptions opts;
  opts.default_objective_us = 100;
  opts.target = 0.9;
  service::SloTracker slo(opts);
  ASSERT_TRUE(slo.enabled());
  EXPECT_EQ(slo.ObjectiveFor(1.0), 100);

  // 8 met, 2 missed (one slow, one not-OK) -> attainment 0.8, and the
  // error budget (10%) is being burned at 2x.
  for (int i = 0; i < 8; ++i) slo.Record(1.0, true, 50, 1000 + i);
  slo.Record(1.0, true, 200, 1008);
  slo.Record(1.0, false, 10, 1009);
  EXPECT_DOUBLE_EQ(slo.Attainment(1.0), 0.8);
  EXPECT_DOUBLE_EQ(slo.BurnRate(1.0), 2.0);
}

TEST(SloTrackerTest, PerClassObjectivesAndWindowEviction) {
  service::SloOptions opts;
  opts.default_objective_us = 100;
  opts.window_us = 1000;
  opts.per_class_objective_us[2] = 5000;
  service::SloTracker slo(opts);
  EXPECT_EQ(slo.ObjectiveFor(2.4), 5000);  // class = truncated priority
  EXPECT_EQ(slo.ObjectiveFor(1.0), 100);

  slo.Record(1.0, true, 500, 1000);  // miss at t=1000
  EXPECT_DOUBLE_EQ(slo.Attainment(1.0), 0.0);
  // A met query far past the window evicts the old miss.
  slo.Record(1.0, true, 50, 500000);
  EXPECT_DOUBLE_EQ(slo.Attainment(1.0), 1.0);
  EXPECT_DOUBLE_EQ(slo.BurnRate(1.0), 0.0);
}

// End-to-end trigger path: a query over its latency threshold lands in
// the slow-query log and retroactively dumps a parseable Chrome trace
// containing its own lifecycle span.
TEST(ServiceFlightTriggerTest, SlowQueryDumpsRetroactively) {
  FlightRecorder::Global().set_enabled(true);
  auto& log = flight::SlowQueryLog::Global();
  log.Clear();
  const std::string dump = TempPath("wimpi_flight_test_dump.json");
  std::remove(dump.c_str());
  std::remove((dump + ".jsonl").c_str());

  uint64_t query_id = 0;
  {
    service::ServiceOptions opts;
    opts.max_active = 1;
    opts.query_threads = 2;
    opts.morsel_rows = 256;
    opts.flight.latency_threshold_us = 1;  // everything is slow
    opts.flight.dump_path = dump;
    service::QueryService svc(opts);

    service::QuerySpec spec;
    spec.label = "slowish";
    spec.plan = [](exec::QueryStats*) {
      exec::RunMorsels(256 * 4, exec::PlannedThreads(256 * 4),
                       [](const parallel::Morsel&) {
                         std::this_thread::sleep_for(
                             std::chrono::microseconds(500));
                       });
      return exec::Relation();
    };
    service::QueryTicket t = svc.Submit(std::move(spec));
    ASSERT_TRUE(t.Wait().ok());
    query_id = t.query_id();
    ASSERT_GT(query_id, 0u);
  }  // destructor flushes any pending dumps

  // Slow-query log carries the trigger and the resource report.
  bool logged = false;
  for (const auto& e : log.Snapshot()) {
    if (e.report.query_id != query_id) continue;
    logged = true;
    EXPECT_EQ(e.trigger, "latency");
    EXPECT_EQ(e.label, "slowish");
    EXPECT_GT(e.report.wall_us, 0);
    EXPECT_EQ(e.report.cpu_us,
              e.report.driver_cpu_us + e.report.worker_cpu_us);
  }
  EXPECT_TRUE(logged);

  // The retroactive dump exists, parses, and contains this query's span.
  const std::string json = ReadFileOrEmpty(dump);
  ASSERT_FALSE(json.empty()) << dump << " was not written";
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(json, &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // The query's lifecycle span sits on the query-lane process; its
  // 4-morsel pipeline ran on 2 threads, so the driver recorded a
  // pipeline span that must nest inside it.
  auto of_query = [&](const JsonValue& e, const char* cat) {
    const JsonValue* args = e.Find("args");
    return e.GetString("cat", "") == cat && e.GetString("ph", "") == "X" &&
           args != nullptr &&
           args->GetDouble("query", 0) == static_cast<double>(query_id);
  };
  const JsonValue* query_span = nullptr;
  for (const JsonValue& e : events->AsArray()) {
    if (of_query(e, "flight.query")) query_span = &e;
  }
  ASSERT_NE(query_span, nullptr);
  EXPECT_EQ(query_span->GetDouble("pid", 0), obs::kTracePidQueryLanes);
  const double query_start = query_span->GetDouble("ts", 0);
  const double query_end = query_start + query_span->GetDouble("dur", 0);
  int pipeline_spans = 0;
  for (const JsonValue& e : events->AsArray()) {
    if (!of_query(e, "flight.pipeline")) continue;
    ++pipeline_spans;
    EXPECT_EQ(e.GetDouble("pid", 0), obs::kTracePidHost);
    const double start = e.GetDouble("ts", 0);
    EXPECT_GE(start, query_start);
    EXPECT_LE(start + e.GetDouble("dur", 0), query_end);
  }
  EXPECT_GE(pipeline_spans, 1);

  // Flight instants carry the raw records; the dump is the only file.
  for (const JsonValue& e : events->AsArray()) {
    if (e.GetString("cat", "") != "flight.event") continue;
    const JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    for (const char* key : {"query", "a", "b"}) {
      EXPECT_NE(args->Find(key), nullptr) << key;
    }
  }
  std::FILE* sidecar = std::fopen((dump + ".jsonl").c_str(), "rb");
  EXPECT_EQ(sidecar, nullptr) << "flight dumps write no JSONL sidecar";
  if (sidecar != nullptr) std::fclose(sidecar);

  std::remove(dump.c_str());
  log.Clear();
}

}  // namespace
}  // namespace wimpi
