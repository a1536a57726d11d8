// Chaos soak for fine-grained recovery (DESIGN.md §14): sweeps hundreds of
// seed-derived fault x steal x resize scenarios against the simulated WIMPI
// cluster and enforces the contract the recovery design is built on — the
// answer relation is bit-identical to the clean run under EVERY schedule,
// because faults, steals, checkpoints, and membership changes only move
// modeled morsel ranges between node clocks, never the real execution.
//
// Each seed derives one scenario: the query rotates through the SF-10
// subset, FaultPlan::Generate picks the misbehaving nodes, even seeds add a
// ResizePlan (join/leave mid-run), and every seventh seed disables stealing
// so the checkpoint-only path stays covered. Fault-only seeds additionally
// run the same plan under whole-partition retry, producing the paired
// modeled-latency distributions behind the "recovery" artifact series: the
// fine-grained tail must dominate retry-only (gated by `wimpi_check chaos`,
// value drift by `wimpi_check compare` against the committed baseline).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/wimpi_cluster.h"
#include "common/cli.h"
#include "common/file_util.h"
#include "common/table_printer.h"
#include "obs/trace.h"
#include "tpch/queries.h"

namespace {

using namespace wimpi;
using namespace wimpi::bench;

// Accumulated evidence of one sweep (one model scale factor).
struct SweepStats {
  int seeds = 0;
  int mismatches = 0;        // checksum differences vs the clean run
  int pairs = 0;             // seeds that also ran under retry-only
  long steals = 0;
  long stolen_morsels = 0;
  long checkpoints = 0;
  long recovered_morsels = 0;
  long joins = 0;
  long leaves = 0;
  double checkpoint_bytes = 0;
  std::vector<double> fine_s;   // paired modeled totals, fine-grained
  std::vector<double> retry_s;  // paired modeled totals, retry-only
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  const double physical_sf = cli.GetDouble("physical-sf", 0.02);
  const int nodes = cli.GetInt("nodes", 8);
  const int sf1_seeds = cli.GetInt("seeds", 200);
  const int sf10_seeds = cli.GetInt("sf10-seeds", 16);
  const std::string json_path = cli.GetString("json", "");
  const std::string trace_path = cli.GetString("trace", "");
  const uint64_t trace_seed =
      static_cast<uint64_t>(cli.GetInt("trace-seed", 6));
  for (const std::string& path : {json_path, trace_path}) {
    std::string path_error;
    if (!path.empty() && !ValidateWritablePath(path, &path_error)) {
      std::fprintf(stderr, "[bench] %s\n", path_error.c_str());
      return 1;
    }
  }

  const engine::Database db = LoadDb(physical_sf);
  const hw::CostModel model;
  const std::vector<int> queries(std::begin(tpch::kSf10Queries),
                                 std::end(tpch::kSf10Queries));

  // One scenario run. Constructing the cluster per seed is cheap relative
  // to the partial executions inside Run(), and keeps every scenario fully
  // described by its options (the determinism story of the whole repo).
  auto run_once = [&](int q, double model_sf, cluster::RecoveryMode mode,
                      bool steal, const cluster::FaultPlan& faults,
                      const cluster::ResizePlan& resize)
      -> Result<cluster::DistributedRun> {
    cluster::ClusterOptions opts;
    opts.num_nodes = nodes;
    opts.sf_scale = model_sf / physical_sf;
    opts.faults = faults;
    opts.resize = resize;
    opts.recovery.mode = mode;
    opts.recovery.steal = steal;
    const cluster::WimpiCluster wimpi(db, opts);
    return wimpi.Run(q, model);
  };

  // Sweep one model scale factor: per-query clean references first (ground
  // truth checksums + clean modeled totals), then the seeded scenarios.
  auto sweep = [&](double model_sf, int n_seeds, uint64_t seed_base,
                   SweepStats* out) -> bool {
    std::map<int, uint64_t> clean_sum;
    for (const int q : queries) {
      const auto retry_clean = run_once(q, model_sf, cluster::RecoveryMode::kRetry,
                                        true, {}, {});
      const auto fine_clean = run_once(
          q, model_sf, cluster::RecoveryMode::kFineGrained, true, {}, {});
      if (!retry_clean.ok() || !fine_clean.ok()) {
        std::fprintf(stderr, "[bench] clean Q%d failed\n", q);
        return false;
      }
      clean_sum[q] = RelationChecksum(retry_clean->result);
      if (RelationChecksum(fine_clean->result) != clean_sum[q]) {
        std::fprintf(stderr,
                     "[bench] Q%d: clean fine-grained answer differs from "
                     "retry answer\n",
                     q);
        return false;
      }
    }
    for (int i = 0; i < n_seeds; ++i) {
      const uint64_t seed = seed_base + static_cast<uint64_t>(i) + 1;
      const int q = queries[i % queries.size()];
      const auto faults =
          cluster::FaultPlan::Generate(seed, nodes);
      const cluster::ResizePlan resize =
          (seed % 2 == 0) ? cluster::ResizePlan::Generate(seed, nodes)
                          : cluster::ResizePlan{};
      const bool steal = seed % 7 != 0;
      const auto fine = run_once(q, model_sf,
                                 cluster::RecoveryMode::kFineGrained, steal,
                                 faults, resize);
      if (!fine.ok()) {
        std::fprintf(stderr, "[bench] seed %llu Q%d failed: %s\n",
                     static_cast<unsigned long long>(seed), q,
                     fine.status().ToString().c_str());
        return false;
      }
      ++out->seeds;
      if (RelationChecksum(fine->result) != clean_sum.at(q)) {
        ++out->mismatches;
        std::fprintf(stderr,
                     "[bench] seed %llu Q%d: checksum mismatch vs clean "
                     "(faults: %s)\n",
                     static_cast<unsigned long long>(seed), q,
                     faults.ToString().c_str());
      }
      out->steals += fine->steals;
      out->stolen_morsels += fine->stolen_morsels;
      out->checkpoints += fine->checkpoints;
      out->recovered_morsels += fine->recovered_morsels;
      out->joins += fine->joins;
      out->leaves += fine->leaves;
      out->checkpoint_bytes += fine->checkpoint_bytes;
      // Fault-only, steal-on seeds also run under retry-only: the paired
      // modeled totals are the tail-latency comparison (resize has no
      // retry-mode equivalent, so those seeds cannot pair fairly).
      if (resize.empty() && steal) {
        const auto retry = run_once(q, model_sf,
                                    cluster::RecoveryMode::kRetry, true,
                                    faults, {});
        if (!retry.ok()) {
          std::fprintf(stderr, "[bench] seed %llu Q%d retry failed: %s\n",
                       static_cast<unsigned long long>(seed), q,
                       retry.status().ToString().c_str());
          return false;
        }
        ++out->pairs;
        out->fine_s.push_back(fine->total_seconds);
        out->retry_s.push_back(retry->total_seconds);
        if (cli.GetInt("dump-pairs", 0) != 0 &&
            fine->total_seconds > retry->total_seconds) {
          std::fprintf(stderr,
                       "[pair] seed %llu Q%d fine %.3f retry %.3f "
                       "(steals %d recov %d failed %d | retry retries %d) "
                       "faults: %s\n",
                       static_cast<unsigned long long>(seed), q,
                       fine->total_seconds, retry->total_seconds,
                       fine->steals, fine->recovered_morsels,
                       fine->nodes_failed, retry->retries,
                       faults.ToString().c_str());
        }
      }
      if ((i + 1) % 50 == 0) {
        std::fprintf(stderr, "[bench] SF %.0f: %d/%d seeds\n", model_sf,
                     i + 1, n_seeds);
      }
    }
    return true;
  };

  SweepStats sf1, sf10;
  if (!sweep(1.0, sf1_seeds, 0, &sf1)) return 1;
  if (!sweep(10.0, sf10_seeds, 1000000, &sf10)) return 1;

  // --- Console report ---
  auto report = [&](const char* name, const SweepStats& s) {
    std::cout << "CHAOS SOAK (" << name << "): " << s.seeds << " seeds, "
              << s.mismatches << " checksum mismatches\n";
    TablePrinter t({"counter", "value"});
    t.AddRow({"steals", std::to_string(s.steals)});
    t.AddRow({"stolen morsels", std::to_string(s.stolen_morsels)});
    t.AddRow({"checkpoints", std::to_string(s.checkpoints)});
    t.AddRow({"recovered morsels", std::to_string(s.recovered_morsels)});
    t.AddRow({"joins", std::to_string(s.joins)});
    t.AddRow({"leaves", std::to_string(s.leaves)});
    t.Print(std::cout);
  };
  report("SF 1", sf1);
  report("SF 10 subset", sf10);

  std::cout << "\nRECOVERY TAIL (modeled totals over " << sf1.pairs
            << " paired SF-1 scenarios)\n";
  TablePrinter tail({"mode", "mean", "p50", "p90", "p95", "p99", "max"});
  auto tail_row = [&](const char* name, const std::vector<double>& v) {
    tail.AddRow({name, TablePrinter::Fixed(Mean(v), 4),
                 TablePrinter::Fixed(Percentile(v, 0.50), 4),
                 TablePrinter::Fixed(Percentile(v, 0.90), 4),
                 TablePrinter::Fixed(Percentile(v, 0.95), 4),
                 TablePrinter::Fixed(Percentile(v, 0.99), 4),
                 TablePrinter::Fixed(Percentile(v, 1.0), 4)});
  };
  tail_row("fine-grained", sf1.fine_s);
  tail_row("retry-only", sf1.retry_s);
  tail.Print(std::cout);

  if (sf1.mismatches + sf10.mismatches > 0) {
    std::fprintf(stderr, "[bench] FAIL: checksum mismatches under chaos\n");
    return 1;
  }

  // --- Trace export (--trace): one representative fine-grained scenario,
  // for `wimpi_check cluster` (steal/ckpt span causality). ---
  if (!trace_path.empty()) {
    obs::TraceSink::Global().Clear();
    obs::TraceSink::Global().set_enabled(true);
    const auto traced = run_once(
        queries[trace_seed % queries.size()], 1.0,
        cluster::RecoveryMode::kFineGrained, true,
        cluster::FaultPlan::Generate(trace_seed, nodes),
        cluster::ResizePlan::Generate(trace_seed, nodes));
    obs::TraceSink::Global().set_enabled(false);
    if (!traced.ok()) {
      std::fprintf(stderr, "[bench] trace scenario failed: %s\n",
                   traced.status().ToString().c_str());
      return 1;
    }
    if (!obs::TraceSink::Global().WriteFile(trace_path)) return 1;
    std::fprintf(stderr, "[bench] wrote trace %s (seed %llu, steals %d)\n",
                 trace_path.c_str(),
                 static_cast<unsigned long long>(trace_seed),
                 traced->steals);
  }

  // --- Machine-readable artifact (--json=path) ---
  if (!json_path.empty()) {
    RunArtifact artifact = MakeArtifact("chaos", 1.0);
    auto fill = [&](const std::string& series, const SweepStats& s) {
      auto& row = artifact.rows[series];
      row["seeds"] = s.seeds;
      row["pairs"] = s.pairs;
      row["checksum_mismatches"] = s.mismatches;
      row["steals"] = static_cast<double>(s.steals);
      row["stolen_morsels"] = static_cast<double>(s.stolen_morsels);
      row["checkpoints"] = static_cast<double>(s.checkpoints);
      row["recovered_morsels"] = static_cast<double>(s.recovered_morsels);
      row["joins"] = static_cast<double>(s.joins);
      row["leaves"] = static_cast<double>(s.leaves);
      row["checkpoint_bytes"] = s.checkpoint_bytes;
    };
    fill("chaos", sf1);
    fill("chaos_sf10", sf10);
    // Modeled (deterministic) tail latencies; names avoid the noisy
    // "seconds"/"wall" patterns so `wimpi_check compare` gates them.
    auto& rec = artifact.rows["recovery"];
    for (const auto& [prefix, v] :
         {std::pair<const char*, const std::vector<double>*>{"fine",
                                                             &sf1.fine_s},
          {"retry", &sf1.retry_s}}) {
      const std::string p(prefix);
      rec[p + "_mean_s"] = Mean(*v);
      rec[p + "_p50_s"] = Percentile(*v, 0.50);
      rec[p + "_p90_s"] = Percentile(*v, 0.90);
      rec[p + "_p95_s"] = Percentile(*v, 0.95);
      rec[p + "_p99_s"] = Percentile(*v, 0.99);
      rec[p + "_max_s"] = Percentile(*v, 1.0);
    }
    if (!WriteArtifact(json_path, artifact)) return 1;
  }
  return 0;
}
