// Telemetry export pipeline: every JSON artifact the observability layer
// emits (Chrome trace, profile JSON, Prometheus exposition) must
// round-trip through the repo's own JSON parser, and the distributed trace
// rendered from a run (cluster::ClusterTrace) must form a coherent causal
// tree (every retry chained to the attempt it retried, every fault
// flow-linked to the retry it caused) and render the same run to the same
// bytes every time.
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "artifact.h"
#include "cluster/fault.h"
#include "cluster/wimpi_cluster.h"
#include "common/json.h"
#include "engine/executor.h"
#include "gtest/gtest.h"
#include "hw/host_anchor.h"
#include "obs/export/exposition.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

constexpr int kNodes = 4;

const engine::Database& TestDb() {
  static engine::Database* db = [] {
    tpch::GenOptions opts;
    opts.scale_factor = 0.02;
    return new engine::Database(tpch::GenerateDatabase(opts));
  }();
  return *db;
}

Result<cluster::DistributedRun> RunWith(
    int q, cluster::FaultPlan plan,
    cluster::RecoveryMode mode = cluster::RecoveryMode::kRetry) {
  cluster::ClusterOptions opts;
  opts.num_nodes = kNodes;
  opts.faults = std::move(plan);
  opts.recovery.mode = mode;
  const cluster::WimpiCluster wimpi(TestDb(), opts);
  hw::CostModel model;
  return wimpi.Run(q, model);
}

// The Chrome JSON of `run`'s rendered trace.
std::string RenderedJson(int q, const cluster::DistributedRun& run,
                         const cluster::FaultPlan& plan, uint64_t trace_id) {
  return obs::TraceEventsToJson(cluster::ClusterTrace(q, run, plan, trace_id));
}

uint64_t HexField(const JsonValue& args, const char* key) {
  const JsonValue* v = args.Find(key);
  if (v == nullptr || !v->is_string()) return 0;
  return std::strtoull(v->AsString().c_str(), nullptr, 16);
}

// A trace event as the structural checks below want to see it.
struct ParsedEvent {
  std::string name, cat, ph;
  uint64_t trace = 0, span = 0, parent = 0;
  std::string flow;  // 's'/'f' id field
  double attempt = -1, partition = -1;
};

std::vector<ParsedEvent> ParseTrace(const std::string& json) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(json, &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  std::vector<ParsedEvent> out;
  for (const JsonValue& e : events->AsArray()) {
    ParsedEvent p;
    p.name = e.GetString("name", "");
    p.cat = e.GetString("cat", "");
    p.ph = e.GetString("ph", "");
    if (const JsonValue* args = e.Find("args"); args != nullptr) {
      p.trace = HexField(*args, "trace");
      p.span = HexField(*args, "span");
      p.parent = HexField(*args, "parent");
      p.attempt = args->GetDouble("attempt", -1);
      p.partition = args->GetDouble("partition", -1);
    }
    if (const JsonValue* id = e.Find("id"); id != nullptr && id->is_string()) {
      p.flow = id->AsString();
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

// --- The acceptance test: a fault-injected distributed run exports one
// coherent trace where every retry has a parent attempt and a causal link
// to the fault that caused it. ---
TEST(TraceExport, RetryChainFormsCausalTree) {
  // Crashing node 0 guarantees at least one failed attempt, one retry on
  // another node, and one reassignment.
  const auto plan = cluster::FaultPlan::Crash({0});
  const auto r = RunWith(1, plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->retries, 0);
  constexpr uint64_t kTraceId = 0x51;

  const auto events = ParseTrace(RenderedJson(1, *r, plan, kTraceId));
  ASSERT_FALSE(events.empty());

  // Index spans and collect per-category counts.
  std::map<uint64_t, const ParsedEvent*> by_span;
  int attempts = 0, faults = 0, partitions = 0, roots = 0;
  for (const auto& e : events) {
    if (e.span != 0) by_span[e.span] = &e;
    if (e.cat == "cluster.attempt") ++attempts;
    if (e.cat == "cluster.fault") ++faults;
    if (e.cat == "cluster.partition") ++partitions;
    if (e.cat == "cluster" && e.ph == "X") ++roots;
  }
  EXPECT_EQ(roots, 1);
  EXPECT_EQ(partitions, kNodes);  // one partition lane per home node
  EXPECT_EQ(attempts, static_cast<int>(r->attempts.size()));
  EXPECT_GT(faults, 0);

  for (const auto& e : events) {
    if (e.ph == "M") continue;
    // Everything the cluster exported carries the run's trace id.
    if (e.cat.rfind("cluster", 0) == 0) {
      EXPECT_EQ(e.trace, kTraceId);
    }
    // Every parent reference resolves to a recorded span of the same trace.
    if (e.parent != 0) {
      ASSERT_TRUE(by_span.count(e.parent))
          << e.name << " parent " << e.parent << " unresolved";
      EXPECT_EQ(by_span.at(e.parent)->trace, e.trace);
    }
    if (e.cat == "cluster.attempt") {
      ASSERT_NE(e.parent, 0u) << "attempt span without parent";
      const ParsedEvent& parent = *by_span.at(e.parent);
      if (e.attempt > 0) {
        // A retry's parent is the previous attempt of the same partition.
        EXPECT_EQ(parent.cat, "cluster.attempt");
        EXPECT_EQ(parent.partition, e.partition);
        EXPECT_EQ(parent.attempt, e.attempt - 1);
      } else {
        // A first attempt hangs off its partition span.
        EXPECT_EQ(parent.cat, "cluster.partition");
      }
    }
    // Every fault instant is anchored to the attempt that suffered it.
    if (e.cat == "cluster.fault") {
      ASSERT_NE(e.parent, 0u);
      EXPECT_EQ(by_span.at(e.parent)->cat, "cluster.attempt");
    }
  }

  // Every fault has a flow arrow to the retry it caused: each flow id
  // appears exactly once as 's' and once as 'f'.
  std::map<std::string, int> flow_sides;
  int flows = 0;
  for (const auto& e : events) {
    if (e.ph == "s") ++flow_sides[e.flow], ++flows;
    if (e.ph == "f") --flow_sides[e.flow];
  }
  EXPECT_GT(flows, 0);
  for (const auto& [id, balance] : flow_sides) {
    EXPECT_EQ(balance, 0) << "unbalanced flow " << id;
  }
}

TEST(TraceExport, HostSpansJoinTheClusterTrace) {
  const auto plan = cluster::FaultPlan::Transient(1, 1);
  const auto r = RunWith(6, plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->partial_host_us.size(), static_cast<size_t>(kNodes));

  // The real-clock partial executions ("cluster.exec") carry the same
  // trace id as the modeled timeline and hang off its root span, so one
  // tree spans both clocks.
  const auto events = ParseTrace(RenderedJson(6, *r, plan, 9));
  uint64_t root = 0;
  for (const auto& e : events) {
    if (e.cat == "cluster" && e.ph == "X") root = e.span;
  }
  ASSERT_NE(root, 0u);
  int exec_spans = 0;
  for (const auto& e : events) {
    if (e.cat == "cluster.exec") {
      ++exec_spans;
      EXPECT_EQ(e.trace, 9u);
      EXPECT_EQ(e.parent, root);
      EXPECT_EQ(e.ph, "X");
    }
  }
  EXPECT_EQ(exec_spans, kNodes);
  for (const auto& [start_us, end_us] : r->partial_host_us) {
    EXPECT_GT(start_us, 0);
    EXPECT_GE(end_us, start_us);
  }
}

TEST(TraceExport, RenderingIsByteIdentical) {
  // A trace is a pure function of the run: rendering the same retry-mode
  // or fine-grained run twice gives the same bytes.
  const auto plan = cluster::FaultPlan::Generate(6, kNodes);
  for (const auto mode :
       {cluster::RecoveryMode::kRetry, cluster::RecoveryMode::kFineGrained}) {
    const auto r = RunWith(1, plan, mode);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::string first = RenderedJson(1, *r, plan, 3);
    EXPECT_EQ(first, RenderedJson(1, *r, plan, 3));
    EXPECT_NE(first.find("cluster.attempt"), std::string::npos);
  }
}

TEST(TraceExport, RollupsSummarizeNodeImbalance) {
  const auto clean = RunWith(1, cluster::FaultPlan{});
  ASSERT_TRUE(clean.ok());
  const auto& roll = clean->node_rollups;
  ASSERT_TRUE(roll.count("node.busy_s.skew"));
  ASSERT_TRUE(roll.count("node.attempts.sum"));
  EXPECT_EQ(roll.at("node.attempts.sum"),
            static_cast<double>(clean->attempts.size()));
  EXPECT_EQ(roll.at("node.failed_attempts.sum"), 0.0);
  EXPECT_GE(roll.at("node.busy_s.skew"), 1.0);

  // A hard straggler shows up as busy-time skew.
  const auto skewed = RunWith(1, cluster::FaultPlan::Slowdown(2, 8.0));
  ASSERT_TRUE(skewed.ok());
  EXPECT_GT(skewed->node_rollups.at("node.busy_s.skew"),
            roll.at("node.busy_s.skew"));
}

// --- Round-trips: every exported artifact parses with common/json. ---

TEST(TraceExport, ChromeJsonParses) {
  const auto plan = cluster::FaultPlan::Crash({1});
  const auto r = RunWith(3, plan);
  ASSERT_TRUE(r.ok());
  const std::vector<obs::TraceEvent> rendered =
      cluster::ClusterTrace(3, *r, plan, 1);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(obs::TraceEventsToJson(rendered), &doc,
                               &error))
      << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Every rendered event plus the process_name metadata rows.
  EXPECT_GE(events->AsArray().size(), rendered.size());
  for (const JsonValue& e : events->AsArray()) {
    EXPECT_NE(e.Find("name"), nullptr);
    EXPECT_NE(e.Find("ph"), nullptr);
  }
}

TEST(ProfileJson, ParsesAndMatchesTreeShape) {
  engine::Executor ex;
  obs::ProfileOptions popts;
  obs::QueryProfile profile;
  exec::QueryStats stats;
  const exec::Relation result = ex.RunProfiled(
      [&](exec::QueryStats* s) { return tpch::RunQuery(6, TestDb(), s); },
      popts, &profile, &stats, "Q6");
  ASSERT_GT(result.num_rows(), 0);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(profile.ToJson(), &doc, &error)) << error;
  EXPECT_GT(doc.GetDouble("wall_seconds", 0), 0.0);
  const JsonValue* root = doc.Find("root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->GetString("name", ""), "Q6");
  const JsonValue* children = root->Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_TRUE(children->is_array());
  EXPECT_FALSE(children->AsArray().empty());
}

TEST(Exposition, WriteParseRoundTrip) {
  obs::RegistrySnapshot snap;
  snap.counters["pool.tasks"] = 42;
  snap.gauges["pool.queue_depth"] = 3.5;
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 10.0, 100.0};
  h.bucket_counts = {2, 3, 0, 1};  // 1 overflow sample
  h.count = 6;
  h.sum = 123.5;
  snap.histograms["task.run_us"] = h;

  const std::string text = obs::ExpositionFormat::Write(snap);
  std::vector<obs::ExpositionSample> samples;
  std::string error;
  ASSERT_TRUE(obs::ExpositionFormat::Parse(text, &samples, &error)) << error;

  std::map<std::string, double> plain;     // unlabeled samples
  std::map<std::string, double> buckets;   // le -> cumulative count
  for (const auto& s : samples) {
    if (s.labels.empty()) {
      plain[s.name] = s.value;
    } else if (s.name == "wimpi_task_run_us_bucket") {
      buckets[s.labels.at("le")] = s.value;
    }
  }
  EXPECT_EQ(plain.at("wimpi_pool_tasks"), 42);
  EXPECT_EQ(plain.at("wimpi_pool_queue_depth"), 3.5);
  // Buckets are cumulative; +Inf equals the total count.
  EXPECT_EQ(buckets.at("1"), 2);
  EXPECT_EQ(buckets.at("10"), 5);
  EXPECT_EQ(buckets.at("100"), 5);
  EXPECT_EQ(buckets.at("+Inf"), 6);
  EXPECT_EQ(plain.at("wimpi_task_run_us_count"), 6);
  EXPECT_DOUBLE_EQ(plain.at("wimpi_task_run_us_sum"), 123.5);
}

TEST(Exposition, GlobalRegistryExports) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.ResetForTesting();
  reg.counter("export.test.counter").Add(7);
  reg.histogram("export.test.lat_us").Record(12.0);

  const std::string text = obs::ExpositionFormat::WriteGlobal();
  EXPECT_NE(text.find("wimpi_export_test_counter 7"), std::string::npos)
      << text;
  EXPECT_NE(text.find("wimpi_export_test_lat_us_count 1"), std::string::npos);
  std::vector<obs::ExpositionSample> samples;
  std::string error;
  ASSERT_TRUE(obs::ExpositionFormat::Parse(text, &samples, &error)) << error;
  reg.ResetForTesting();
}

TEST(Exposition, InfoMetricsRoundTripWithLabels) {
  // Info metrics (host.info convention): written as a labeled gauge of
  // constant value 1; the parser must hand back the identity labels.
  obs::RegistrySnapshot snap;
  snap.infos["host.info"] = {{"cpu", "Test CPU @ 1.5GHz"}, {"threads", "4"}};
  snap.counters["pool.tasks"] = 1;

  const std::string text = obs::ExpositionFormat::Write(snap);
  std::vector<obs::ExpositionSample> samples;
  std::string error;
  ASSERT_TRUE(obs::ExpositionFormat::Parse(text, &samples, &error)) << error;

  bool found = false;
  for (const auto& s : samples) {
    if (s.name != "wimpi_host_info") continue;
    found = true;
    EXPECT_EQ(s.value, 1);
    EXPECT_EQ(s.labels.at("cpu"), "Test CPU @ 1.5GHz");
    EXPECT_EQ(s.labels.at("threads"), "4");
  }
  EXPECT_TRUE(found) << text;
}

TEST(Exposition, PublishHostInfoLandsInGlobalExposition) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.ResetForTesting();
  hw::PublishHostInfo();
  const std::string text = obs::ExpositionFormat::WriteGlobal();
  std::vector<obs::ExpositionSample> samples;
  std::string error;
  ASSERT_TRUE(obs::ExpositionFormat::Parse(text, &samples, &error)) << error;
  bool found = false;
  for (const auto& s : samples) {
    if (s.name != "wimpi_host_info") continue;
    found = true;
    EXPECT_FALSE(s.labels.at("cpu").empty());
    EXPECT_GT(std::stoi(s.labels.at("threads")), 0);
  }
  EXPECT_TRUE(found) << text;
  reg.ResetForTesting();
}

TEST(Exposition, HelpCommentsRoundTripWithMeta) {
  obs::RegistrySnapshot snap;
  snap.counters["service.submitted"] = 5;
  obs::HistogramSnapshot h;
  h.bounds = {1.0};
  h.bucket_counts = {1, 0};
  h.count = 1;
  h.sum = 0.5;
  snap.histograms["service.latency_us"] = h;

  const std::string text = obs::ExpositionFormat::Write(snap);
  // HELP precedes TYPE for each family, and carries the table's text.
  const size_t help = text.find("# HELP wimpi_service_submitted ");
  const size_t type = text.find("# TYPE wimpi_service_submitted counter");
  ASSERT_NE(help, std::string::npos) << text;
  ASSERT_NE(type, std::string::npos) << text;
  EXPECT_LT(help, type);

  std::vector<obs::ExpositionSample> samples;
  std::map<std::string, obs::ExpositionMeta> meta;
  std::string error;
  ASSERT_TRUE(obs::ExpositionFormat::Parse(text, &samples, &meta, &error))
      << error;
  ASSERT_TRUE(meta.count("wimpi_service_submitted"));
  EXPECT_EQ(meta["wimpi_service_submitted"].type, "counter");
  EXPECT_EQ(meta["wimpi_service_submitted"].help,
            obs::ExpositionFormat::HelpFor("service.submitted"));
  ASSERT_TRUE(meta.count("wimpi_service_latency_us"));
  EXPECT_EQ(meta["wimpi_service_latency_us"].type, "histogram");

  // The meta-less overload sees the same samples, skipping both comment
  // forms.
  std::vector<obs::ExpositionSample> plain;
  ASSERT_TRUE(obs::ExpositionFormat::Parse(text, &plain, &error)) << error;
  EXPECT_EQ(plain.size(), samples.size());
}

TEST(Exposition, EscapedLabelValuesParse) {
  // Backslash, escaped quote, a '}' inside a quoted value, and a newline
  // escape — each must survive the label scan.
  const std::string text =
      "m{a=\"x\\\\y\",b=\"q\\\"z\",c=\"br}ace\",d=\"li\\nne\"} 1\n";
  std::vector<obs::ExpositionSample> samples;
  std::string error;
  ASSERT_TRUE(obs::ExpositionFormat::Parse(text, &samples, &error)) << error;
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].labels.at("a"), "x\\y");
  EXPECT_EQ(samples[0].labels.at("b"), "q\"z");
  EXPECT_EQ(samples[0].labels.at("c"), "br}ace");
  EXPECT_EQ(samples[0].labels.at("d"), "li\nne");
  // And the writer-side escape produces what the parser undoes.
  EXPECT_EQ(obs::ExpositionFormat::EscapeLabelValue("x\\y"), "x\\\\y");
  EXPECT_EQ(obs::ExpositionFormat::EscapeLabelValue("q\"z"), "q\\\"z");
  EXPECT_EQ(obs::ExpositionFormat::EscapeLabelValue("a\nb"), "a\\nb");
}

TEST(Exposition, PlusInfBucketBoundParses) {
  const std::string text = "x_bucket{le=\"+Inf\"} 7\n";
  std::vector<obs::ExpositionSample> samples;
  std::string error;
  ASSERT_TRUE(obs::ExpositionFormat::Parse(text, &samples, &error)) << error;
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].labels.at("le"), "+Inf");
  EXPECT_EQ(samples[0].value, 7);
}

TEST(Exposition, MalformedLineKeepsEarlierSamples) {
  const std::string text = "good 1\nbad{unterminated 2\nnever 3\n";
  std::vector<obs::ExpositionSample> samples;
  std::string error;
  EXPECT_FALSE(obs::ExpositionFormat::Parse(text, &samples, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  // Samples before the malformed line survive for recovery.
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "good");
  EXPECT_EQ(samples[0].value, 1);
}

TEST(Exposition, SanitizeName) {
  EXPECT_EQ(obs::ExpositionFormat::SanitizeName("pool.worker0.busy_us"),
            "wimpi_pool_worker0_busy_us");
  EXPECT_EQ(obs::ExpositionFormat::SanitizeName("a-b c"), "wimpi_a_b_c");
}

// --- Artifact schema v2 ---

TEST(ArtifactV2, RollupsRoundTripAndGate) {
  bench::RunArtifact a = bench::MakeArtifact("table3_sf10", 10.0);
  a.rows["wimpi-24"]["Q1"] = 1.5;
  a.rollups["Q1.node.busy_s.skew"] = 1.25;
  a.rollups["Q1.node.attempts.sum"] = 30;
  const std::string path = TempPath("wimpi_obs_export_v2.json");
  ASSERT_TRUE(bench::WriteArtifact(path, a));

  bench::RunArtifact b;
  std::string error;
  ASSERT_TRUE(bench::ReadArtifact(path, &b, &error)) << error;
  EXPECT_EQ(b.schema_version, bench::kArtifactSchemaVersion);
  EXPECT_EQ(b.rollups, a.rollups);
  std::remove(path.c_str());

  // Unchanged rollups pass the gate; a regressed skew fails it.
  bench::CompareOptions copts;
  EXPECT_TRUE(bench::CompareArtifacts(a, b, copts).ok);
  b.rollups["Q1.node.busy_s.skew"] = 2.5;
  const auto res = bench::CompareArtifacts(a, b, copts);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.diffs.size(), 1u);
  EXPECT_EQ(res.diffs[0].series, "rollups");

  // Dropped rollup coverage is an error when missing metrics are fatal.
  b.rollups.erase("Q1.node.busy_s.skew");
  copts.fail_on_missing = true;
  EXPECT_FALSE(bench::CompareArtifacts(a, b, copts).ok);
}

TEST(ArtifactV2, AcceptsV1RejectsV3) {
  const std::string v1 = R"({"schema_version":1,"bench":"smoke",
    "model_sf":1.0,"unit":"seconds","rows":{"a":{"Q1":2.0}}})";
  const std::string v3 = R"({"schema_version":3,"bench":"smoke",
    "model_sf":1.0,"unit":"seconds","rows":{}})";

  const std::string path = TempPath("wimpi_obs_export_ver.json");
  std::string error;
  bench::RunArtifact out;

  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(v1.data(), 1, v1.size(), f);
  std::fclose(f);
  EXPECT_TRUE(bench::ReadArtifact(path, &out, &error)) << error;
  EXPECT_EQ(out.schema_version, 1);
  EXPECT_TRUE(out.rollups.empty());
  EXPECT_EQ(out.rows.at("a").at("Q1"), 2.0);

  f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(v3.data(), 1, v3.size(), f);
  std::fclose(f);
  EXPECT_FALSE(bench::ReadArtifact(path, &out, &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wimpi
