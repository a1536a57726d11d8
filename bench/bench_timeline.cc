// Roofline-timeline benchmark and overhead A/B (ISSUE #10): runs all 22
// TPC-H queries with the timeline sampler attached (or detached with
// --off), slices each query's window out of the sampled series, and
// reports the roofline verdicts next to what the cost model predicts.
//
// Three jobs, mirroring the flight-recorder bench conventions:
//   * Overhead A/B: run once with --off and once without, write --json
//     artifacts, and gate mean latency via
//       wimpi_check compare off.json on.json --only mean_latency --wall-tol T
//     (the sampler must cost <= a few percent at the default 1 ms period).
//   * Deterministic model rows: series "model:<profile>" carries each
//     query's bandwidth-bound verdict and bandwidth-op fraction on the
//     fixed Table I profiles — byte-stable across hosts, gated against the
//     committed baseline at zero tolerance (like BENCH_stats.json).
//   * --dump <path>: a Chrome trace checked by `wimpi_check timeline` —
//     one timeline.meta instant (host roofline, sampler period), one
//     timeline.query span per query over its last lap with the summary as
//     args (modeled vs measured class, agreement tallies), and the sampled
//     timeline.* counter tracks.
//
// Answers are checksummed every lap: a sampler that changes any answer bit
// fails the bench (the test suite enforces the same at SF 0.01).
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/table_printer.h"
#include "engine/executor.h"
#include "hw/cost_model.h"
#include "hw/host_anchor.h"
#include "hw/profile.h"
#include "obs/clock.h"
#include "obs/timeline/roofline.h"
#include "obs/timeline/sampler.h"
#include "obs/trace.h"
#include "tpch/queries.h"

namespace {

namespace timeline = wimpi::obs::timeline;

struct QueryWindow {
  int64_t submit_us = 0;
  int64_t finish_us = 0;
  double wall_seconds = 0;  // summed over laps
  uint64_t checksum = 0;
  wimpi::exec::QueryStats stats;  // physical-SF counters (lap 0)
};

// Query-level measured verdict: saturation-fraction majority.
const char* MeasuredClass(const timeline::RooflineSummary& s) {
  if (s.mean_gbps < 0) return "unknown";
  return s.saturation_fraction > 0.5 ? "bandwidth" : "compute";
}

}  // namespace

int main(int argc, char** argv) {
  using wimpi::TablePrinter;
  const wimpi::CommandLine cli(argc, argv);
  const double physical_sf = cli.GetDouble("physical-sf", 0.01);
  const double model_sf = cli.GetDouble("model-sf", 1.0);
  const int threads = static_cast<int>(cli.GetInt("threads", 4));
  const int laps = static_cast<int>(cli.GetInt("laps", 3));
  const int64_t period_us = cli.GetInt("period-us", 1000);
  const int64_t morsel_rows = cli.GetInt("morsel-rows", 64 * 1024);
  const bool off = cli.GetBool("off", false);
  const std::string json_path = cli.GetString("json", "");
  const std::string dump_path = cli.GetString("dump", "");

  const wimpi::engine::Database db = wimpi::bench::LoadDb(physical_sf);
  const std::vector<int> queries = wimpi::bench::AllQueryNumbers();

  // ---- Sampler on/off ----
  timeline::TimelineSampler& sampler = timeline::TimelineSampler::Global();
  bool sampler_on = false;
  if (!off) {
    timeline::SamplerOptions sopts;
    sopts.period_us = period_us;
    sampler_on = sampler.Start(sopts);
    if (!sampler_on) {
      std::fprintf(stderr, "timeline sampler refused to start: %s\n",
                   sampler.note().c_str());
    }
  }

  // ---- Run all queries x laps under the sampler ----
  std::map<int, QueryWindow> windows;
  double wall_seconds = 0;
  int64_t mismatches = 0;
  for (const int q : queries) {
    QueryWindow& w = windows[q];
    for (int lap = 0; lap < laps; ++lap) {
      wimpi::engine::Executor ex;
      ex.set_num_threads(threads);
      ex.set_morsel_rows(morsel_rows);
      wimpi::exec::QueryStats stats;
      const int64_t start = wimpi::obs::NowMicros();
      const wimpi::exec::Relation r = ex.Run(
          [&](wimpi::exec::QueryStats* s) {
            return wimpi::tpch::RunQuery(q, db, s);
          },
          &stats);
      const int64_t finish = wimpi::obs::NowMicros();
      w.wall_seconds += static_cast<double>(finish - start) * 1e-6;
      const uint64_t sum = wimpi::bench::RelationChecksum(r);
      if (lap == 0) {
        w.checksum = sum;
        w.stats = stats;
      } else if (sum != w.checksum) {
        ++mismatches;
        std::fprintf(stderr, "ANSWER MISMATCH: q%d lap %d differs\n", q, lap);
      }
      // The dump slices the last (warmed) lap.
      w.submit_us = start;
      w.finish_us = finish;
    }
    wall_seconds += w.wall_seconds;
  }
  const int64_t ticks = sampler.ticks();
  if (sampler_on) sampler.Stop();
  const double mean_latency =
      wall_seconds / (static_cast<double>(laps) * queries.size());

  // ---- Roofline verdicts: measured (host) and modeled (fixed profiles) ---
  const wimpi::hw::CostModel model;
  const wimpi::hw::HardwareProfile host = wimpi::hw::HostProfile();
  const timeline::RooflineSpec host_spec =
      timeline::RooflineSpec::FromProfile(host, threads, model);
  const std::vector<std::string> model_profiles = {"pi3b+", "op-gold"};

  std::map<int, timeline::RooflineSummary> summaries;  // measured, host SF
  std::map<int, timeline::QueryTimeline> slices;
  if (sampler_on) {
    for (const int q : queries) {
      const QueryWindow& w = windows[q];
      timeline::QueryTimeline tl = sampler.Slice(w.submit_us, w.finish_us);
      timeline::RooflineSummary s =
          timeline::BuildRooflineSummary(tl, host_spec);
      // Measured runs happened at physical SF on this host: cross-check
      // against the model's prediction for exactly that configuration.
      timeline::CrossCheckWithModel(model, host, w.stats, threads, &s);
      summaries[q] = std::move(s);
      slices[q] = std::move(tl);
    }
  }

  // Query-level modeled verdicts at the claim SF on the fixed profiles.
  std::map<std::string, std::map<int, std::pair<timeline::BoundClass, double>>>
      modeled;
  for (const std::string& pname : model_profiles) {
    const wimpi::hw::HardwareProfile& p = wimpi::hw::ProfileByName(pname);
    for (const int q : queries) {
      wimpi::exec::QueryStats scaled = windows[q].stats;
      scaled.Scale(model_sf / physical_sf);
      double frac = 0;
      const timeline::BoundClass c =
          timeline::ModeledQueryBound(model, p, scaled, p.threads, &frac);
      modeled[pname][q] = {c, frac};
    }
  }

  // ---- Report ----
  std::printf("\nTimeline bench: %zu queries x %d laps, %d threads, SF %.2f "
              "(sampler %s, period %lld us, %lld ticks)\n\n",
              queries.size(), laps, threads, physical_sf,
              sampler_on ? "on" : "off", static_cast<long long>(period_us),
              static_cast<long long>(ticks));
  TablePrinter t({"Query", "Wall (s)", "Modeled pi3b+", "bw frac",
                  "Measured", "GB/s", "Agree"});
  for (const int q : queries) {
    const auto& [mclass, mfrac] = modeled["pi3b+"][q];
    std::string measured = "-", gbps = "-", agree = "-";
    const auto it = summaries.find(q);
    if (it != summaries.end()) {
      const timeline::RooflineSummary& s = it->second;
      measured = MeasuredClass(s);
      if (s.mean_gbps >= 0) gbps = TablePrinter::Fixed(s.mean_gbps, 2);
      if (s.agree + s.disagree > 0) {
        agree = std::to_string(s.agree) + "/" +
                std::to_string(s.agree + s.disagree);
      }
    }
    t.AddRow({"Q" + std::to_string(q),
              TablePrinter::Fixed(windows[q].wall_seconds /
                                      static_cast<double>(laps), 4),
              timeline::BoundClassName(mclass), TablePrinter::Fixed(mfrac, 3),
              measured, gbps, agree});
  }
  t.Print(std::cout);
  if (sampler_on) {
    std::printf("\nHost roofline: peak %.1f GB/s, achievable %.1f GB/s, "
                "saturation >= %.1f GB/s%s\n",
                host_spec.peak_gbps, host_spec.achievable_gbps,
                host_spec.saturation_gbps,
                sampler.note().empty()
                    ? ""
                    : (" (" + sampler.note() + ")").c_str());
  }

  // ---- Artifact ----
  if (!json_path.empty()) {
    wimpi::bench::RunArtifact artifact =
        wimpi::bench::MakeArtifact("timeline", model_sf);
    for (const std::string& pname : model_profiles) {
      auto& row = artifact.rows["model:" + pname];
      for (const int q : queries) {
        const auto& [c, frac] = modeled[pname][q];
        row["Q" + std::to_string(q) + ".bw_bound"] =
            c == timeline::BoundClass::kBandwidth ? 1.0 : 0.0;
        row["Q" + std::to_string(q) + ".bw_op_frac"] = frac;
      }
    }
    auto& row = artifact.rows["timeline"];
    row["answer_mismatches"] = static_cast<double>(mismatches);
    for (const int q : queries) {
      row["q" + std::to_string(q) + ".checksum"] =
          static_cast<double>(windows[q].checksum & 0xFFFFFFFFull);
    }
    // Measured (informational unless --wall-tol; CI gates mean_latency in
    // the off-vs-on comparison).
    row["wall_seconds"] = wall_seconds;
    row["mean_latency_seconds"] = mean_latency;
    if (!wimpi::bench::WriteArtifact(json_path, artifact)) return 1;
  }

  // ---- Dump for `wimpi_check timeline` ----
  if (!dump_path.empty()) {
    std::vector<wimpi::obs::TraceEvent> events;
    {
      wimpi::JsonWriter w;
      w.BeginObject()
          .Key("peak_gbps").Double(host_spec.peak_gbps)
          .Key("saturation_gbps").Double(host_spec.saturation_gbps)
          .Key("period_us").Int(period_us)
          .Key("sampler_on").Bool(sampler_on)
          .EndObject();
      events.push_back({.name = "timeline.meta",
                        .category = "timeline",
                        .phase = 'i',
                        .ts_us = windows[queries.front()].submit_us,
                        .args_json = w.str()});
    }
    for (const int q : queries) {
      const QueryWindow& qw = windows[q];
      wimpi::JsonWriter w;
      w.BeginObject().Key("q").Int(q);
      {
        // Modeled verdict on the wimpy reference point: the dump's claim
        // is the paper's claim (Q1/Q6 memory-bound on the Pi at SF 1).
        const auto& [c, frac] = modeled["pi3b+"][q];
        w.Key("modeled").String(timeline::BoundClassName(c))
            .Key("bw_op_frac").Double(frac);
      }
      const auto it = summaries.find(q);
      if (it != summaries.end()) {
        const timeline::RooflineSummary& s = it->second;
        w.Key("measured").String(MeasuredClass(s))
            .Key("mean_gbps").Double(s.mean_gbps)
            .Key("saturation_fraction").Double(s.saturation_fraction)
            .Key("pipelines").Int(static_cast<int64_t>(s.pipelines.size()))
            .Key("agree").Int(s.agree)
            .Key("disagree").Int(s.disagree);
      } else {
        w.Key("measured").String("unknown");
      }
      w.EndObject();
      events.push_back({.name = "Q" + std::to_string(q),
                        .category = "timeline.query",
                        .ts_us = qw.submit_us,
                        .dur_us = qw.finish_us - qw.submit_us,
                        .args_json = w.str()});
      const auto sit = slices.find(q);
      if (sit != slices.end()) sit->second.AppendCounterTracks(&events);
    }
    std::string error;
    if (!wimpi::obs::WriteTraceFile(dump_path, events, &error)) {
      std::fprintf(stderr, "FAIL: %s\n", error.c_str());
      return 1;
    }
  }

  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %lld answers changed under the sampler\n",
                 static_cast<long long>(mismatches));
    return 1;
  }
  return 0;
}
