// wimpi_profile: EXPLAIN ANALYZE for the wimpi engine. Runs TPC-H queries
// with the operator profiler installed and prints, per query:
//
//   * the operator tree with measured wall time, rows in/out, parallel
//     fan-out, and the abstract work counters (OpStats) side by side;
//   * a cost-model residual report (measured vs modeled per-operator-class
//     seconds, anchored to this host's total).
//
// Optionally dumps per-morsel/per-task spans as Chrome trace-event JSON
// (chrome://tracing, ui.perfetto.dev) and the thread-pool latency metrics.
//
// With --perf, hardware counters (perf_event_open) are attached to the run:
// the tree gains per-operator IPC / LLC-miss columns and a counter-residual
// report compares measured instructions and DRAM traffic against the
// abstract work counters. Degrades to "counters unavailable" where the PMU
// is hidden (containers, VMs, perf_event_paranoid).
//
// With --stats, column statistics are collected for every table up front
// (stats::StatsRegistry) and installed as the cardinality estimator: each
// query then prints a cardinality-residual report — per-operator-class
// Q-error (max(est/act, act/est)) with the worst offender per class —
// next to the cost-model and counter residuals. Answers are bit-identical
// with or without --stats.
//
// With --timeline, the roofline timeline sampler (obs/timeline/) runs in
// the background and each query prints an ASCII sparkline table — GB/s,
// IPC, and occupancy (busy cores) per bucket (--timeline-bucket-ms,
// default 10) — plus the per-pipeline roofline summary cross-checked
// against the cost model. With --trace, the sampled series rides along
// inside the Chrome trace as timeline.* counter tracks. On hosts without a
// PMU the sparklines degrade to occupancy/memory only.
//
//   ./examples/wimpi_profile [--sf 0.1] [--q 1,6] [--threads 4]
//                            [--trace trace.json] [--json profile.json]
//                            [--metrics] [--metrics-prom metrics.prom]
//                            [--perf] [--stats]
//                            [--timeline] [--timeline-period-us 1000]
//                            [--timeline-bucket-ms 10]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/file_util.h"
#include "engine/executor.h"
#include "hw/cost_model.h"
#include "hw/host_anchor.h"
#include "obs/export/exposition.h"
#include "obs/metrics.h"
#include "obs/clock.h"
#include "obs/profiler.h"
#include "obs/residual.h"
#include "obs/timeline/roofline.h"
#include "obs/timeline/sampler.h"
#include "obs/trace.h"
#include "stats/registry.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace {

bool WriteOutput(const std::string& path, const std::string& text) {
  std::string error;
  if (wimpi::WriteTextFile(path, text, &error)) return true;
  std::fprintf(stderr, "%s\n", error.c_str());
  return false;
}

// One sparkline row: `values` bucketed onto a pure-ASCII intensity ramp
// (blank = no data for that bucket, i.e. value < 0).
std::string Sparkline(const std::vector<double>& values, double vmax) {
  static const char kRamp[] = ".:-=+*#%@";
  constexpr int kLevels = static_cast<int>(sizeof(kRamp) - 1);
  std::string out;
  out.reserve(values.size());
  for (const double v : values) {
    if (v < 0) {
      out += ' ';
    } else if (vmax <= 0) {
      out += kRamp[0];
    } else {
      const int level = std::min(
          kLevels - 1, static_cast<int>(v / vmax * (kLevels - 1) + 0.5));
      out += kRamp[level];
    }
  }
  return out;
}

// Time-weighted bucket means of one interval signal over [start, end).
// Buckets with no data read -1 (rendered blank).
std::vector<double> BucketSignal(
    const std::vector<wimpi::obs::timeline::TimelineInterval>& ivs,
    int64_t start_us, int64_t bucket_us, size_t buckets,
    double (*get)(const wimpi::obs::timeline::TimelineInterval&)) {
  std::vector<double> sum(buckets, 0), weight(buckets, 0);
  for (const auto& iv : ivs) {
    const double v = get(iv);
    if (v < 0) continue;
    // Attribute the interval to every bucket it overlaps, by overlap time.
    for (size_t b = 0; b < buckets; ++b) {
      const int64_t b0 = start_us + static_cast<int64_t>(b) * bucket_us;
      const int64_t b1 = b0 + bucket_us;
      const int64_t lo = std::max(iv.t0_us, b0);
      const int64_t hi = std::min(iv.t1_us, b1);
      if (hi <= lo) continue;
      const double w = static_cast<double>(hi - lo);
      sum[b] += v * w;
      weight[b] += w;
    }
  }
  std::vector<double> out(buckets, -1);
  for (size_t b = 0; b < buckets; ++b) {
    if (weight[b] > 0) out[b] = sum[b] / weight[b];
  }
  return out;
}

void PrintSparkRow(const char* name, const std::vector<double>& v) {
  const double vmax = *std::max_element(v.begin(), v.end());
  if (vmax < 0) {
    std::printf("  %-5s unavailable (PMU hidden)\n", name);
    return;
  }
  std::printf("  %-5s [max %6.2f] |%s|\n", name, vmax,
              Sparkline(v, vmax).c_str());
}

std::vector<int> ParseQueries(const std::string& spec) {
  std::vector<int> out;
  int cur = -1;
  for (const char c : spec) {
    if (c >= '0' && c <= '9') {
      cur = (cur < 0 ? 0 : cur * 10) + (c - '0');
    } else if (cur >= 0) {
      out.push_back(cur);
      cur = -1;
    }
  }
  if (cur >= 0) out.push_back(cur);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const wimpi::CommandLine cli(argc, argv);
  const double sf = cli.GetDouble("sf", 0.1);
  const int threads = static_cast<int>(cli.GetInt("threads", 1));
  const std::string trace_path = cli.GetString("trace", "");
  const std::string json_path = cli.GetString("json", "");
  // --metrics-prom with no value prints the exposition to stdout; with a
  // value it writes the file.
  std::string prom_path = cli.GetString("metrics-prom", "");
  const bool prom_stdout = prom_path == "true";
  if (prom_stdout) prom_path.clear();
  const bool pool_metrics = cli.GetBool("metrics", false) || prom_stdout ||
                            !prom_path.empty();
  const bool residuals = cli.GetBool("residual", true);
  const bool perf = cli.GetBool("perf", false);
  const bool stats_on = cli.GetBool("stats", false);
  const bool timeline_on = cli.GetBool("timeline", false);
  const int64_t timeline_period_us = cli.GetInt("timeline-period-us", 1000);
  const int64_t bucket_ms = cli.GetInt("timeline-bucket-ms", 10);
  const std::vector<int> queries = ParseQueries(cli.GetString("q", "1,6"));

  // Fail on unwritable output paths before generating data and running
  // queries, not after.
  for (const std::string& path :
       {trace_path, json_path, prom_path}) {
    std::string path_error;
    if (!path.empty() && !wimpi::ValidateWritablePath(path, &path_error)) {
      std::fprintf(stderr, "%s\n", path_error.c_str());
      return 1;
    }
  }

  wimpi::tpch::GenOptions gen;
  gen.scale_factor = sf;
  const wimpi::engine::Database db = wimpi::tpch::GenerateDatabase(gen);
  std::printf("TPC-H SF %g (%lld lineitem rows), %d thread%s\n", sf,
              static_cast<long long>(db.table("lineitem").num_rows()),
              threads, threads == 1 ? "" : "s");

  wimpi::engine::Executor ex;
  ex.set_num_threads(threads);

  wimpi::stats::StatsRegistry registry;
  if (stats_on) {
    registry.CollectDatabase(db);
    ex.set_cardinality_estimator(&registry);
    std::printf("collected column statistics for %zu tables\n",
                db.tables().size());
  }

  wimpi::obs::ProfileOptions popts;
  popts.trace = !trace_path.empty();
  popts.pool_metrics = pool_metrics;
  popts.perf_counters = perf;
  if (perf && threads > 1) {
    std::printf("note: perf counters only observe the profiling thread and "
                "workers spawned after it; use --threads 1 for full "
                "coverage.\n");
  }

  const wimpi::hw::CostModel model;
  const wimpi::hw::HardwareProfile host = wimpi::hw::HostProfile();

  namespace tl = wimpi::obs::timeline;
  tl::TimelineSampler& sampler = tl::TimelineSampler::Global();
  bool sampling = false;
  if (timeline_on) {
    tl::SamplerOptions sopts;
    sopts.period_us = timeline_period_us;
    sampling = sampler.Start(sopts);
    if (!sampling) {
      std::printf("note: timeline sampler refused to start: %s\n",
                  sampler.note().c_str());
    } else if (!sampler.note().empty()) {
      std::printf("note: timeline sampler degraded: %s\n",
                  sampler.note().c_str());
    }
  }
  const tl::RooflineSpec roofline_spec =
      tl::RooflineSpec::FromProfile(host, threads, model);
  // Counter tracks of every query's slice, appended to the --trace file.
  std::vector<wimpi::obs::TraceEvent> counter_tracks;

  std::string profiles_json;  // accumulated {"Q1":{...},...} for --json
  for (const int q : queries) {
    wimpi::exec::QueryStats stats;
    wimpi::obs::QueryProfile profile;
    const int64_t tl_start = wimpi::obs::NowMicros();
    const wimpi::exec::Relation result = ex.RunProfiled(
        [&](wimpi::exec::QueryStats* s) {
          return wimpi::tpch::RunQuery(q, db, s);
        },
        popts, &profile, &stats, "Q" + std::to_string(q));
    const int64_t tl_end = wimpi::obs::NowMicros();
    std::printf("\n=== Q%d: %lld result row%s ===\n", q,
                static_cast<long long>(result.num_rows()),
                result.num_rows() == 1 ? "" : "s");
    std::printf("%s", profile.FormatTree().c_str());
    if (!json_path.empty()) {
      if (!profiles_json.empty()) profiles_json += ",";
      profiles_json += "\"Q" + std::to_string(q) + "\":" + profile.ToJson();
    }
    if (residuals) {
      const wimpi::obs::ResidualReport report =
          wimpi::obs::CostModelResiduals(profile, model, host, threads);
      std::printf("%s", report.Format().c_str());
    }
    if (perf) {
      std::printf("%s",
                  wimpi::obs::CounterResiduals(profile).Format().c_str());
    }
    if (stats_on) {
      const wimpi::obs::CardinalityReport card =
          wimpi::obs::CardinalityResiduals(profile);
      std::printf("%s", card.Format().c_str());
      wimpi::obs::RecordCardinalityMetrics(card);
    }
    if (sampling) {
      tl::QueryTimeline qtl = sampler.Slice(tl_start, tl_end);
      const std::vector<tl::TimelineInterval> ivs = qtl.Intervals();
      const int64_t bucket_us = bucket_ms * 1000;
      const size_t buckets = static_cast<size_t>(
          std::max<int64_t>(1, (tl_end - tl_start + bucket_us - 1) /
                                   bucket_us));
      std::printf("\n--- timeline (%lld ms in %zu x %lld ms buckets, "
                  "%zu samples) ---\n",
                  static_cast<long long>((tl_end - tl_start) / 1000), buckets,
                  static_cast<long long>(bucket_ms), qtl.samples.size());
      if (ivs.empty()) {
        std::printf("  (query finished between sampler ticks; lower "
                    "--timeline-period-us for sub-period queries)\n");
      } else {
        PrintSparkRow("GB/s",
                      BucketSignal(ivs, tl_start, bucket_us, buckets,
                                   [](const tl::TimelineInterval& iv) {
                                     return iv.gbps;
                                   }));
        PrintSparkRow("IPC",
                      BucketSignal(ivs, tl_start, bucket_us, buckets,
                                   [](const tl::TimelineInterval& iv) {
                                     return iv.ipc;
                                   }));
        // Occupancy: busy cores from the task clock where counted, else
        // lanes observed mid-pipeline (always available).
        PrintSparkRow("occ",
                      BucketSignal(ivs, tl_start, bucket_us, buckets,
                                   [](const tl::TimelineInterval& iv) {
                                     return iv.cpu_util >= 0
                                                ? iv.cpu_util
                                                : static_cast<double>(
                                                      iv.num_active);
                                   }));
        tl::RooflineSummary summary =
            tl::BuildRooflineSummary(qtl, roofline_spec);
        tl::CrossCheckWithModel(model, host, stats, threads, &summary);
        std::printf("%s", summary.Format().c_str());
      }
      qtl.AppendCounterTracks(&counter_tracks);
    }
  }
  if (sampling) sampler.Stop();

  if (pool_metrics) {
    std::printf("\n--- pool metrics ---\n%s",
                wimpi::obs::MetricsRegistry::Global().FormatText().c_str());
  }
  if (prom_stdout || !prom_path.empty()) {
    // Host fingerprint so expositions from different machines are
    // distinguishable after scraping.
    wimpi::hw::PublishHostInfo();
  }
  if (prom_stdout) {
    std::printf("\n--- prometheus exposition ---\n%s",
                wimpi::obs::ExpositionFormat::WriteGlobal().c_str());
  }
  if (!prom_path.empty()) {
    if (!WriteOutput(prom_path, wimpi::obs::ExpositionFormat::WriteGlobal()))
      return 1;
    std::printf("\nWrote Prometheus exposition to %s\n", prom_path.c_str());
  }
  if (!json_path.empty()) {
    if (!WriteOutput(json_path, "{\"queries\":{" + profiles_json + "}}\n"))
      return 1;
    std::printf("\nWrote profile JSON to %s\n", json_path.c_str());
  }
  if (!trace_path.empty()) {
    // Counter tracks render alongside the span tree in chrome://tracing /
    // Perfetto: bandwidth and occupancy as graphs above the operators.
    std::vector<wimpi::obs::TraceEvent> events =
        wimpi::obs::TraceSink::Global().Snapshot();
    events.insert(events.end(), counter_tracks.begin(), counter_tracks.end());
    std::string error;
    if (!wimpi::obs::WriteTraceFile(trace_path, events, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("\nWrote %zu trace events to %s\n", events.size(),
                trace_path.c_str());
  }
  return 0;
}
