// The roofline timeline sampler (ISSUE #10) must be an observer, not a
// participant: every TPC-H query runs bit-identically with the sampler on
// or off, at every thread count. Also covered here:
//   * the saturation / ridge classification math on synthetic counter
//     deltas (no PMU needed);
//   * interval differencing, the exact counter delta over a window, and
//     per-operator attribution through the profile tree, from synthetic
//     sample series;
//   * sampler lifecycle — WIMPI_PERF_DISABLE=1 refusal, double-start
//     refusal, graceful degradation when perf_event_open counts nothing,
//     and start/stop racing query execution (the TSan pass runs this);
//   * the timeline.* counter tracks a QueryTimeline renders into traces;
//   * the service attachment: QueryResourceReport carries the query's
//     slice, and a slow-query or cluster-fault flight dump carries the
//     counter tracks inside the one dump file;
//   * the modeled side: Q1 is bandwidth-bound on the Pi profile at SF 1,
//     OpSeconds is exactly the roofline max the classifier uses, and every
//     operator of a profiled query gets a modeled class.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "gtest/gtest.h"
#include "hw/cost_model.h"
#include "hw/profile.h"
#include "obs/clock.h"
#include "obs/flight/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/timeline/roofline.h"
#include "obs/timeline/sampler.h"
#include "obs/timeline/timeline.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

namespace tl = obs::timeline;

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

// Exact (bit-level) relation comparison, same bar as obs_queries_test.
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

// Synthetic sample with cumulative counters (the layout the sampler rings).
obs::timeline::TimelineSample Sample(int64_t ts_us, int64_t instructions,
                                     int64_t cycles, int64_t llc_misses,
                                     int64_t task_clock_ns) {
  tl::TimelineSample s;
  s.ts_us = ts_us;
  if (instructions >= 0) s.perf.Set(obs::PerfEvent::kInstructions, instructions);
  if (cycles >= 0) s.perf.Set(obs::PerfEvent::kCycles, cycles);
  if (llc_misses >= 0) s.perf.Set(obs::PerfEvent::kLlcMisses, llc_misses);
  if (task_clock_ns >= 0) s.perf.Set(obs::PerfEvent::kTaskClockNs, task_clock_ns);
  return s;
}

// Parses the Chrome trace file at `path`; a missing or unparseable file
// fails the calling test.
JsonValue ReadTrace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path << " was not written";
  std::stringstream text;
  text << in.rdbuf();
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(text.str(), &doc, &error)) << error;
  return doc;
}

tl::RooflineSpec SyntheticSpec() {
  tl::RooflineSpec spec;
  spec.profile = "synthetic";
  spec.peak_gbps = 40;
  spec.achievable_gbps = 18;
  spec.saturation_gbps = 10;
  spec.peak_instr_per_sec = 9e9;
  spec.ridge_instr_per_byte = 0.5;  // 9e9 instr/s / 18 GB/s
  return spec;
}

// ---------------------------------------------------------------------------
// Math on synthetic counters
// ---------------------------------------------------------------------------

TEST(TimelineMath, IntervalRatesFromCumulativeCounters) {
  tl::QueryTimeline t;
  t.start_us = 0;
  t.end_us = 2000;
  // 1 ms apart; second tick moved 1e6 instructions, 5e5 cycles, 31250
  // LLC misses (= 2 MB = 2 GB/s), 4e5 ns of task clock (0.4 busy cores).
  t.samples.push_back(Sample(1000, 1000000, 500000, 10000, 100000));
  t.samples.push_back(
      Sample(2000, 2000000, 1000000, 10000 + 31250, 500000));
  const std::vector<tl::TimelineInterval> ivs = t.Intervals();
  ASSERT_EQ(ivs.size(), 1u);
  const tl::TimelineInterval& iv = ivs[0];
  EXPECT_EQ(iv.t0_us, 1000);
  EXPECT_EQ(iv.t1_us, 2000);
  EXPECT_NEAR(iv.dt_s, 1e-3, 1e-9);
  EXPECT_NEAR(iv.gbps, 31250 * 64.0 / 1e-3 / 1e9, 1e-6);  // = 2.0
  EXPECT_NEAR(iv.ipc, 2.0, 1e-9);
  EXPECT_NEAR(iv.instr_per_sec, 1e9, 1);
  EXPECT_NEAR(iv.cpu_util, 0.4, 1e-9);
}

TEST(TimelineMath, UnavailableCountersYieldUnavailableRates) {
  tl::QueryTimeline t;
  t.samples.push_back(Sample(0, -1, -1, -1, -1));
  t.samples.push_back(Sample(1000, -1, -1, -1, -1));
  const std::vector<tl::TimelineInterval> ivs = t.Intervals();
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_LT(ivs[0].gbps, 0);
  EXPECT_LT(ivs[0].ipc, 0);
  EXPECT_LT(ivs[0].cpu_util, 0);
  // Structure is still valid: timestamps survive degradation.
  EXPECT_EQ(ivs[0].t1_us, 1000);
}

TEST(TimelineMath, SaturationClassifiesBandwidthBound) {
  const tl::RooflineSpec spec = SyntheticSpec();
  tl::TimelineInterval iv;
  iv.gbps = 12;  // above the 10 GB/s saturation threshold
  iv.instr_per_sec = 50e9;  // even with huge compute throughput
  EXPECT_EQ(tl::ClassifyInterval(iv, spec), tl::BoundClass::kBandwidth);
}

TEST(TimelineMath, RidgeClassifiesIntensity) {
  const tl::RooflineSpec spec = SyntheticSpec();
  tl::TimelineInterval low;
  low.gbps = 5;                // unsaturated...
  low.instr_per_sec = 1e9;     // 0.2 instr/byte < ridge 0.5
  EXPECT_EQ(tl::ClassifyInterval(low, spec), tl::BoundClass::kBandwidth);

  tl::TimelineInterval high;
  high.gbps = 5;
  high.instr_per_sec = 10e9;   // 2 instr/byte > ridge
  EXPECT_EQ(tl::ClassifyInterval(high, spec), tl::BoundClass::kCompute);
}

TEST(TimelineMath, MissingBandwidthIsUnknown) {
  const tl::RooflineSpec spec = SyntheticSpec();
  tl::TimelineInterval iv;  // gbps = -1
  iv.instr_per_sec = 1e9;
  EXPECT_EQ(tl::ClassifyInterval(iv, spec), tl::BoundClass::kUnknown);
}

TEST(TimelineMath, OverTakesTheExactDeltaOfSamplesInsideTheWindow) {
  tl::QueryTimeline t;
  // Cumulative counters at 1 ms ticks, each interval at its own rates: the
  // window's figures are the difference of its first and last samples.
  t.samples.push_back(Sample(0, 0, 0, 0, 0));
  t.samples.push_back(Sample(1000, 1000, 1000, 100, 1000000));
  t.samples.push_back(Sample(2000, 4000, 2000, 300, 1500000));
  t.samples.push_back(Sample(3000, 4500, 4000, 1000, 2500000));
  t.samples.push_back(Sample(4000, 9000, 5000, 1100, 3000000));

  // [500, 3500) holds the ticks at 1000, 2000 and 3000.
  const tl::TimelineInterval iv = t.Over(500, 3500);
  EXPECT_EQ(iv.t0_us, 1000);
  EXPECT_EQ(iv.t1_us, 3000);
  EXPECT_NEAR(iv.dt_s, 2e-3, 1e-12);
  EXPECT_NEAR(iv.gbps, 900 * 64.0 / 2e-3 / 1e9, 1e-12);
  EXPECT_NEAR(iv.ipc, 3500.0 / 3000.0, 1e-12);
  EXPECT_NEAR(iv.instr_per_sec, 3500 / 2e-3, 1e-6);
  EXPECT_NEAR(iv.cpu_util, 1.5e6 / 2e6, 1e-12);

  // The end is exclusive: [1000, 3000) stops at the 2000 tick.
  EXPECT_EQ(t.Over(1000, 3000).t1_us, 2000);
  // The whole series equals the sum of its intervals.
  EXPECT_NEAR(t.Over(0, 4001).gbps, 1100 * 64.0 / 4e-3 / 1e9, 1e-12);

  // One sample inside (or none) covers nothing: every rate unknown.
  for (const auto& [t0, t1] : {std::pair<int64_t, int64_t>{1500, 2500},
                               {4500, 9000}, {3000, 3000}}) {
    const tl::TimelineInterval none = t.Over(t0, t1);
    EXPECT_EQ(none.dt_s, 0) << t0;
    EXPECT_LT(none.gbps, 0) << t0;
    EXPECT_LT(none.ipc, 0) << t0;
    EXPECT_LT(none.cpu_util, 0) << t0;
  }
}

// Each profile node with OpStats is one operator row, measured over its
// own window of the sampled series.
TEST(TimelineMath, OperatorsAreMeasuredOverTheirOwnProfileWindow) {
  tl::QueryTimeline t;
  // Quiet until 2000, then 1 GB per ms of DRAM traffic: far above any
  // profile's saturation bandwidth.
  const int64_t kLinesPerMs = 1000000000 / 64;
  t.samples.push_back(Sample(0, 0, 0, 0, -1));
  t.samples.push_back(Sample(1000, 1000, 1000, 0, -1));
  t.samples.push_back(Sample(2000, 2000, 2000, 0, -1));
  t.samples.push_back(Sample(3000, 3000, 3000, kLinesPerMs, -1));
  t.samples.push_back(Sample(4000, 4000, 4000, 2 * kLinesPerMs, -1));

  obs::QueryProfile profile;
  profile.root.name = "Q";
  profile.root.start_us = 0;
  profile.root.wall_seconds = 4.5e-3;  // no OpStats: no row
  auto add_child = [&profile](const char* name, int64_t start_us,
                              double wall_s) {
    auto node = std::make_unique<obs::ProfileNode>();
    node->name = name;
    node->start_us = start_us;
    node->wall_seconds = wall_s;
    exec::OpStats op;
    op.op = name;
    op.seq_bytes = 1e6;
    node->op_stats.push_back(op);
    profile.root.children.push_back(std::move(node));
  };
  add_child("Quiet", 0, 2e-3);           // ticks 0 and 1000: no traffic
  add_child("Streaming", 2000, 2.5e-3);  // ticks 2000, 3000 and 4000
  add_child("Short", 4100, 3e-4);        // no tick inside

  const hw::CostModel model;
  const hw::HardwareProfile& pi = hw::ProfileByName("pi3b+");
  const tl::RooflineSummary s =
      tl::BuildRooflineSummary(t, profile, model, pi, pi.threads);
  ASSERT_EQ(s.operators.size(), 3u);
  EXPECT_EQ(s.operators[0].name, "Quiet");
  EXPECT_EQ(s.operators[0].gbps, 0);
  EXPECT_EQ(s.operators[1].name, "Streaming");
  EXPECT_NEAR(s.operators[1].gbps, 1000, 1e-6);
  EXPECT_EQ(s.operators[1].measured, tl::BoundClass::kBandwidth);
  EXPECT_EQ(s.operators[2].name, "Short");
  EXPECT_EQ(s.operators[2].measured, tl::BoundClass::kUnknown);
  EXPECT_DOUBLE_EQ(s.operators[2].seconds, 3e-4);
  // Pure streaming work is modeled bandwidth-bound; the tallies count the
  // two operators whose measured class is known.
  for (const tl::OperatorRoofline& op : s.operators) {
    EXPECT_EQ(op.modeled, tl::BoundClass::kBandwidth) << op.name;
  }
  EXPECT_EQ(s.agree + s.disagree, 2);
  EXPECT_EQ(s.agree, 1);
}

TEST(TimelineMath, CounterTracksOneEventPerIntervalAtT1) {
  tl::QueryTimeline t;
  // First interval: every counter moved. Second: the PMU went dark, so
  // only the structural series remain.
  t.samples.push_back(Sample(1000, 1000, 1000, 0, 0));
  tl::TimelineSample full = Sample(2000, 2000, 3000, 1000, 500000);
  full.mem_used_bytes = 2 << 20;
  full.queue_depth = 3;
  t.samples.push_back(full);
  t.samples.push_back(Sample(3000, -1, -1, -1, -1));

  std::vector<obs::TraceEvent> events;
  t.AppendCounterTracks(&events);
  std::map<std::string, std::vector<std::pair<int64_t, double>>> tracks;
  for (const obs::TraceEvent& e : events) {
    EXPECT_EQ(e.phase, 'C') << e.name;
    EXPECT_EQ(e.pid, obs::kTracePidHost) << e.name;
    JsonValue args;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(e.args_json, &args, &error)) << error;
    tracks[e.name].push_back({e.ts_us, args.GetDouble("value", -1)});
  }
  using Track = std::vector<std::pair<int64_t, double>>;
  auto expect_track = [&tracks](const std::string& name, const Track& want) {
    const Track& got = tracks[name];
    ASSERT_EQ(got.size(), want.size()) << name;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << name;
      EXPECT_NEAR(got[i].second, want[i].second, 1e-9) << name;
    }
  };
  // Rates only where the interval has them: the first interval alone
  // (1000 LLC misses x 64 B in 1 ms = 0.064 GB/s).
  expect_track("timeline.gbps", {{2000, 0.064}});
  expect_track("timeline.ipc", {{2000, 0.5}});
  expect_track("timeline.cpu_util", {{2000, 0.5}});
  // Memory and queue depth every interval, from its end sample.
  expect_track("timeline.mem_mb", {{2000, 2.0}, {3000, 0.0}});
  expect_track("timeline.queue_depth", {{2000, 3.0}, {3000, 0.0}});
  EXPECT_EQ(tracks.size(), 5u);
  EXPECT_EQ(events.size(), 7u);
}

// ---------------------------------------------------------------------------
// Sampler lifecycle
// ---------------------------------------------------------------------------

TEST(TimelineSamplerTest, RefusesWhenDisabledByEnv) {
  ::setenv("WIMPI_PERF_DISABLE", "1", 1);
  tl::TimelineSampler& s = tl::TimelineSampler::Global();
  EXPECT_FALSE(s.Start());
  EXPECT_FALSE(s.enabled());
  EXPECT_FALSE(tl::SamplerEnabled());
  EXPECT_NE(s.note().find("WIMPI_PERF_DISABLE"), std::string::npos);
  ::unsetenv("WIMPI_PERF_DISABLE");
}

TEST(TimelineSamplerTest, RefusesDoubleStart) {
  ::unsetenv("WIMPI_PERF_DISABLE");
  tl::TimelineSampler& s = tl::TimelineSampler::Global();
  tl::SamplerOptions opts;
  opts.period_us = 200;
  ASSERT_TRUE(s.Start(opts));
  EXPECT_FALSE(s.Start(opts));
  EXPECT_TRUE(s.enabled());
  s.Stop();
  EXPECT_FALSE(s.enabled());
}

TEST(TimelineSamplerTest, DegradedSamplingStaysMonotoneAndSliceable) {
  ::unsetenv("WIMPI_PERF_DISABLE");
  tl::TimelineSampler& s = tl::TimelineSampler::Global();
  tl::SamplerOptions opts;
  opts.period_us = 200;
  ASSERT_TRUE(s.Start(opts));
  const int64_t t0 = obs::NowMicros();
  // Real work under the sampler, whatever the host's PMU situation.
  engine::Executor ex;
  ex.set_num_threads(2);
  ex.set_morsel_rows(4096);
  ex.Run([&](exec::QueryStats* st) { return tpch::RunQuery(1, TestDb(), st); });
  // The sampler ticks on its own clock; give it a few periods.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const int64_t t1 = obs::NowMicros();
  EXPECT_GT(s.ticks(), 0);
  const tl::QueryTimeline slice = s.Slice(t0, t1);
  s.Stop();
  ASSERT_FALSE(slice.empty());
  int64_t prev = 0;
  for (const tl::TimelineSample& sample : slice.samples) {
    EXPECT_GE(sample.ts_us, t0);
    EXPECT_LT(sample.ts_us, t1);
    EXPECT_GE(sample.ts_us, prev) << "timestamps must be monotone";
    prev = sample.ts_us;
  }
  // Whatever the host's counters, every interval is structurally valid.
  for (const tl::TimelineInterval& iv : slice.Intervals()) {
    EXPECT_GE(iv.t1_us, iv.t0_us);
  }
}

// The TSan pass runs this: sampler start/stop racing live queries and
// query teardown must be clean.
TEST(TimelineSamplerTest, StartStopRacesQueryExecution) {
  ::unsetenv("WIMPI_PERF_DISABLE");
  tl::TimelineSampler& s = tl::TimelineSampler::Global();
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    tl::SamplerOptions opts;
    opts.period_us = 100;
    while (!stop.load()) {
      s.Start(opts);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      s.Stop();
    }
  });
  for (int lap = 0; lap < 3; ++lap) {
    for (const int q : {1, 6, 14}) {
      engine::Executor ex;
      ex.set_num_threads(4);
      ex.set_morsel_rows(4096);
      ex.Run([&](exec::QueryStats* st) {
        return tpch::RunQuery(q, TestDb(), st);
      });
    }
  }
  stop.store(true);
  toggler.join();
  EXPECT_FALSE(s.enabled());
}

// ---------------------------------------------------------------------------
// Service attachment
// ---------------------------------------------------------------------------

TEST(TimelineServiceTest, ResourceReportCarriesTimeline) {
  ::unsetenv("WIMPI_PERF_DISABLE");
  tl::TimelineSampler& s = tl::TimelineSampler::Global();
  tl::SamplerOptions opts;
  opts.period_us = 200;
  ASSERT_TRUE(s.Start(opts));
  {
    service::ServiceOptions sopts;
    sopts.max_active = 2;
    service::QueryService svc(sopts);
    service::QuerySpec spec;
    spec.label = "q1";
    spec.plan = [](exec::QueryStats* st) {
      // Keep the query on the sampler's clock long enough to catch ticks.
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      return tpch::RunQuery(1, TestDb(), st);
    };
    service::QueryTicket ticket = svc.Submit(std::move(spec));
    ASSERT_TRUE(ticket.Wait().ok());
    const obs::flight::QueryResourceReport& r = ticket.resources();
    EXPECT_TRUE(r.timeline_valid);
    EXPECT_FALSE(r.timeline.samples.empty());
    for (const tl::TimelineSample& sample : r.timeline.samples) {
      EXPECT_GE(sample.ts_us, r.timeline.start_us);
      EXPECT_LT(sample.ts_us, r.timeline.end_us);
    }
  }
  s.Stop();

  // Sampler off: reports carry no timeline.
  service::ServiceOptions sopts;
  service::QueryService svc(sopts);
  service::QuerySpec spec;
  spec.plan = [](exec::QueryStats* st) {
    return tpch::RunQuery(6, TestDb(), st);
  };
  service::QueryTicket ticket = svc.Submit(std::move(spec));
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_FALSE(ticket.resources().timeline_valid);
}

TEST(TimelineServiceTest, SlowQueryDumpCarriesTimelineCounters) {
  ::unsetenv("WIMPI_PERF_DISABLE");
  tl::TimelineSampler& s = tl::TimelineSampler::Global();
  tl::SamplerOptions opts;
  opts.period_us = 200;
  ASSERT_TRUE(s.Start(opts));
  const std::string dump = ::testing::TempDir() + "timeline_dump.json";
  {
    service::ServiceOptions sopts;
    sopts.flight.latency_threshold_us = 1;  // everything is slow
    sopts.flight.dump_path = dump;
    sopts.flight.max_dumps = 1;
    service::QueryService svc(sopts);
    service::QuerySpec spec;
    spec.label = "slow";
    spec.plan = [](exec::QueryStats* st) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      return tpch::RunQuery(6, TestDb(), st);
    };
    ASSERT_TRUE(svc.Submit(std::move(spec)).Wait().ok());
  }  // ~QueryService flushes pending dumps
  s.Stop();

  const JsonValue doc = ReadTrace(dump);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // The slow query's lifecycle span, then its sampled series: counters
  // share the flight clock, so they land inside the span window.
  double start = -1, end = -1;
  for (const JsonValue& e : events->AsArray()) {
    if (e.GetString("cat", "") == "flight.query") {
      start = e.GetDouble("ts", 0);
      end = start + e.GetDouble("dur", 0);
    }
  }
  ASSERT_GE(start, 0) << "dump has no flight.query span";
  int inside = 0;
  for (const JsonValue& e : events->AsArray()) {
    if (e.GetString("ph", "") != "C") continue;
    EXPECT_EQ(e.GetString("name", "").rfind("timeline.", 0), 0u);
    const double ts = e.GetDouble("ts", 0);
    if (ts >= start && ts <= end) ++inside;
  }
  EXPECT_GE(inside, 1);
  std::remove(dump.c_str());
}

// A cluster-fault trigger dumps the same one file, with the sampler's
// slice of its window as counter tracks.
TEST(TimelineServiceTest, FaultDumpCarriesTimelineCounters) {
  ::unsetenv("WIMPI_PERF_DISABLE");
  tl::TimelineSampler& s = tl::TimelineSampler::Global();
  tl::SamplerOptions opts;
  opts.period_us = 200;
  ASSERT_TRUE(s.Start(opts));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::string dump = ::testing::TempDir() + "timeline_fault_dump.json";
  obs::flight::FlightRecorder& recorder = obs::flight::FlightRecorder::Global();
  recorder.SetFaultDumpPath(dump, 1);
  obs::flight::FlightRecorder::NoteFault(/*node=*/3, /*detail=*/0);
  recorder.SetFaultDumpPath("", 0);
  s.Stop();

  const JsonValue doc = ReadTrace(dump);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int faults = 0, counters = 0;
  for (const JsonValue& e : events->AsArray()) {
    if (e.GetString("name", "") == "cluster.fault") ++faults;
    if (e.GetString("ph", "") == "C") ++counters;
  }
  EXPECT_GE(faults, 1);
  EXPECT_GE(counters, 1);
  std::remove(dump.c_str());
}

// ---------------------------------------------------------------------------
// Modeled side
// ---------------------------------------------------------------------------

TEST(TimelineModelTest, Q1IsBandwidthBoundOnThePiAtSf1) {
  engine::Executor ex;
  ex.set_num_threads(1);
  exec::QueryStats stats;
  ex.Run([&](exec::QueryStats* st) { return tpch::RunQuery(1, TestDb(), st); },
         &stats);
  stats.Scale(100);  // SF 0.01 counters -> the paper's SF 1 claim
  const hw::CostModel model;
  const hw::HardwareProfile& pi = hw::ProfileByName("pi3b+");
  double frac = 0;
  EXPECT_EQ(tl::ModeledQueryBound(model, pi, stats, pi.threads, &frac),
            tl::BoundClass::kBandwidth);
  EXPECT_GT(frac, 0.5);
}

TEST(TimelineModelTest, OpSecondsEqualsRooflineMax) {
  engine::Executor ex;
  ex.set_num_threads(1);
  exec::QueryStats stats;
  ex.Run([&](exec::QueryStats* st) { return tpch::RunQuery(6, TestDb(), st); },
         &stats);
  const hw::CostModel model;
  for (const auto* p : {&hw::ProfileByName("pi3b+"),
                        &hw::ProfileByName("op-gold")}) {
    for (const auto& op : stats.ops) {
      const hw::CostModel::OpRoofs roofs = model.OpRoofline(*p, op);
      const double expected =
          std::max(roofs.compute_s, roofs.seq_s) + roofs.rand_s;
      EXPECT_NEAR(model.OpSeconds(*p, op), expected, expected * 1e-12);
    }
  }
}

// Every profiled operator that recorded OpStats gets the model's verdict
// for its own OpStats, whatever its scope is called.
TEST(TimelineModelTest, EveryProfiledOperatorGetsAModeledClass) {
  engine::Executor ex;
  ex.set_num_threads(4);
  ex.set_morsel_rows(4096);
  obs::QueryProfile profile;
  exec::QueryStats stats;  // operators record OpStats only into a sink
  ex.RunProfiled(
      [&](exec::QueryStats* st) { return tpch::RunQuery(1, TestDb(), st); },
      obs::ProfileOptions(), &profile, &stats, "Q1");
  int nodes_with_stats = 0;
  std::vector<const obs::ProfileNode*> stack = {&profile.root};
  while (!stack.empty()) {
    const obs::ProfileNode* node = stack.back();
    stack.pop_back();
    if (!node->op_stats.empty()) ++nodes_with_stats;
    for (const auto& child : node->children) stack.push_back(child.get());
  }

  const hw::CostModel model;
  const tl::RooflineSummary s = tl::BuildRooflineSummary(
      tl::QueryTimeline(), profile, model, hw::ProfileByName("op-gold"), 4);
  ASSERT_EQ(static_cast<int>(s.operators.size()), nodes_with_stats);
  std::map<std::string, int> rows;
  for (const tl::OperatorRoofline& op : s.operators) {
    ++rows[op.name];
    EXPECT_NE(op.modeled, tl::BoundClass::kUnknown) << op.name;
    EXPECT_EQ(op.measured, tl::BoundClass::kUnknown) << "no samples";
  }
  for (const char* name : {"Filter", "Gather", "HashAggregate"}) {
    EXPECT_GE(rows[name], 1) << name;
  }
  EXPECT_EQ(s.agree + s.disagree, 0);
}

TEST(TimelineModelTest, RooflineSpecFromProfileIsConsistent) {
  const hw::CostModel model;
  const hw::HardwareProfile& pi = hw::ProfileByName("pi3b+");
  const tl::RooflineSpec spec =
      tl::RooflineSpec::FromProfile(pi, pi.threads, model);
  EXPECT_DOUBLE_EQ(spec.peak_gbps, pi.mem_bw_all_gbps);
  EXPECT_GT(spec.achievable_gbps, 0);
  EXPECT_LT(spec.achievable_gbps, spec.peak_gbps);
  EXPECT_GT(spec.saturation_gbps, 0);
  EXPECT_LT(spec.saturation_gbps, spec.achievable_gbps);
  EXPECT_GT(spec.ridge_instr_per_byte, 0);
}

// ---------------------------------------------------------------------------
// Bit-identity across all 22 queries and all thread counts
// ---------------------------------------------------------------------------

class TimelineQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(TimelineQueryTest, SampledRunIsBitIdenticalAtEveryThreadCount) {
  ::unsetenv("WIMPI_PERF_DISABLE");
  const int q = GetParam();
  const engine::Database& db = TestDb();
  tl::TimelineSampler& sampler = tl::TimelineSampler::Global();

  for (const int threads : ThreadCounts()) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    engine::Executor ex;
    ex.set_num_threads(threads);
    ex.set_morsel_rows(4096);  // real fan-out even at SF 0.01

    const exec::Relation plain =
        ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); });

    tl::SamplerOptions opts;
    opts.period_us = 200;  // aggressive: several ticks even in short queries
    ASSERT_TRUE(sampler.Start(opts));
    const exec::Relation sampled =
        ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); });
    sampler.Stop();

    ExpectRelationsIdentical(sampled, plain);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TimelineQueryTest,
                         ::testing::Range(1, 23));

}  // namespace
}  // namespace wimpi
