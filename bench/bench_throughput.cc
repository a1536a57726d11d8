// QphH-style concurrent-streams throughput benchmark for the query
// service (ISSUE #6): N closed-loop streams each run all 22 TPC-H queries
// (stream-specific order) through one QueryService sharing the process
// ThreadPool, under admission control against the configured node budget.
// Reports queries/sec and latency percentiles, and verifies two hard
// properties, exiting nonzero when either fails:
//   * every answer is bit-identical to the same plan run in isolation
//     (same thread count and morsel size — scheduler-independence);
//   * peak reserved memory never exceeds the budget.
//
// Artifact (--json=<path>): series "throughput" with deterministic gated
// metrics (completed/rejected counts, per-query checksums, pipeline/task
// counts, violation flags) plus measured wall metrics (informational
// unless --wall-tol): wall_seconds, queries_per_wall_second,
// mean_latency_seconds, and p50/p95/p99 latency.
//
// Observability hooks (ISSUE #7):
//   --slo-us N          per-query latency objective; enables the SLO
//                       tracker and the flight recorder's latency trigger
//   --slo-target F      attainment target for burn-rate (default 0.99)
//   --straggler-ms N    injected sleep making stream 0's --straggler-query
//                       a guaranteed slow query
//   --flight-dump PATH  retroactive Chrome-trace dump path for triggers
//   --slow-log PATH     write the slow-query log (JSONL) after the run
//   --expo PATH         write the Prometheus exposition after the run
//   --flight-off        disable the always-on flight recorder (overhead
//                       A/B: run once with this flag, once without, and
//                       gate mean_latency via `wimpi_check compare --only`)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/file_util.h"
#include "common/table_printer.h"
#include "engine/executor.h"
#include "obs/export/exposition.h"
#include "obs/flight/flight_recorder.h"
#include "obs/flight/slow_query_log.h"
#include "obs/metrics.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "storage/column.h"
#include "tpch/queries.h"

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using wimpi::bench::RelationChecksum;

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using wimpi::TablePrinter;
  const wimpi::CommandLine cli(argc, argv);
  const int streams = static_cast<int>(cli.GetInt("streams", 8));
  const double physical_sf = cli.GetDouble("physical-sf", 0.01);
  const int64_t budget_mb = cli.GetInt("budget-mb", 1024);
  const int max_active = static_cast<int>(cli.GetInt("active", 4));
  const int query_threads = static_cast<int>(cli.GetInt("query-threads", 4));
  const int laps = static_cast<int>(cli.GetInt("laps", 1));
  const int64_t morsel_rows = cli.GetInt("morsel-rows", 64 * 1024);
  const int64_t slo_us = cli.GetInt("slo-us", 0);
  const double slo_target = cli.GetDouble("slo-target", 0.99);
  const int64_t straggler_ms = cli.GetInt("straggler-ms", 0);
  const int straggler_query = static_cast<int>(cli.GetInt("straggler-query", 6));
  const std::string flight_dump = cli.GetString("flight-dump", "");
  const std::string slow_log = cli.GetString("slow-log", "");
  const std::string expo_path = cli.GetString("expo", "");
  if (cli.GetBool("flight-off", false)) {
    wimpi::obs::flight::FlightRecorder::Global().set_enabled(false);
  }

  const wimpi::engine::Database db = wimpi::bench::LoadDb(physical_sf);
  const std::vector<int> queries = wimpi::bench::AllQueryNumbers();

  // ---- Phase 0: isolated reference runs ----
  // Same thread count and morsel size as the service will use, so the
  // concurrent answers must match bit-for-bit (morsel boundaries and merge
  // order are scheduler-independent).
  std::map<int, uint64_t> isolated_checksum;
  std::map<int, int64_t> estimate;
  double isolated_sum_seconds = 0;
  for (const int q : queries) {
    wimpi::engine::Executor ex;
    ex.set_num_threads(query_threads);
    ex.set_morsel_rows(morsel_rows);
    wimpi::exec::QueryStats stats;
    const double start = NowSeconds();
    const wimpi::exec::Relation r = ex.Run(
        [&](wimpi::exec::QueryStats* s) { return wimpi::tpch::RunQuery(q, db, s); },
        &stats);
    isolated_sum_seconds += NowSeconds() - start;
    isolated_checksum[q] = RelationChecksum(r);
    estimate[q] = wimpi::service::EstimateWorkingSetBytes(stats);
  }

  // ---- Phase 1: N concurrent closed-loop streams ----
  wimpi::service::ServiceOptions sopts;
  sopts.budget_bytes = budget_mb << 20;
  sopts.max_active = max_active;
  sopts.max_queue = streams * static_cast<int>(queries.size());
  sopts.query_threads = query_threads;
  sopts.morsel_rows = morsel_rows;
  if (slo_us > 0) {
    sopts.slo.default_objective_us = slo_us;
    sopts.slo.target = slo_target;
  }
  sopts.flight.dump_path = flight_dump;
  wimpi::service::QueryService svc(sopts);

  std::atomic<int64_t> completed{0}, rejected{0}, failed{0}, mismatches{0};
  std::atomic<int64_t> pipelines{0}, tasks{0};
  std::vector<std::vector<double>> stream_latencies(
      static_cast<size_t>(streams));

  const double run_start = NowSeconds();
  {
    std::vector<std::thread> clients;
    for (int s = 0; s < streams; ++s) {
      clients.emplace_back([&, s] {
        wimpi::service::ClientSession session(&svc,
                                              "stream" + std::to_string(s));
        auto& latencies = stream_latencies[static_cast<size_t>(s)];
        for (int lap = 0; lap < laps; ++lap) {
          for (size_t i = 0; i < queries.size(); ++i) {
            // QphH-style stream ordering: each stream starts at a
            // different rotation of the query sequence.
            const int q = queries[(i + static_cast<size_t>(s) * 5) %
                                  queries.size()];
            wimpi::service::QuerySpec spec;
            spec.label = "q" + std::to_string(q);
            spec.estimated_bytes = estimate[q];
            // Straggler injection: stream 0's copy of the chosen query
            // sleeps inside its plan, making it a guaranteed slow query
            // for the flight recorder / slow-query-log CI checks.
            const bool straggle =
                straggler_ms > 0 && s == 0 && q == straggler_query;
            spec.plan = [&db, q, straggle,
                         straggler_ms](wimpi::exec::QueryStats* st) {
              if (straggle) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(straggler_ms));
              }
              return wimpi::tpch::RunQuery(q, db, st);
            };
            const double start = NowSeconds();
            wimpi::service::QueryTicket ticket =
                session.Submit(std::move(spec));
            const wimpi::Status status = ticket.Wait();
            latencies.push_back(NowSeconds() - start);
            if (status.ok()) {
              completed.fetch_add(1);
              pipelines.fetch_add(ticket.pipelines());
              tasks.fetch_add(ticket.tasks());
              if (RelationChecksum(ticket.TakeResult()) !=
                  isolated_checksum[q]) {
                mismatches.fetch_add(1);
                std::fprintf(stderr,
                             "ANSWER MISMATCH: stream %d q%d differs from "
                             "isolated execution\n",
                             s, q);
              }
            } else if (status.code() ==
                       wimpi::StatusCode::kResourceExhausted) {
              rejected.fetch_add(1);
            } else {
              failed.fetch_add(1);
              std::fprintf(stderr, "stream %d q%d: %s\n", s, q,
                           status.ToString().c_str());
            }
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double wall_seconds = NowSeconds() - run_start;

  const int64_t peak_reserved = svc.admission().tracker().peak();
  const int64_t budget_bytes = svc.admission().budget_bytes();
  const bool over_budget = budget_bytes > 0 && peak_reserved > budget_bytes;

  std::vector<double> all_latencies;
  for (const auto& v : stream_latencies) {
    all_latencies.insert(all_latencies.end(), v.begin(), v.end());
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  const double p50 = Percentile(all_latencies, 0.50);
  const double p95 = Percentile(all_latencies, 0.95);
  const double p99 = Percentile(all_latencies, 0.99);
  double mean_latency = 0;
  for (const double l : all_latencies) mean_latency += l;
  if (!all_latencies.empty()) mean_latency /= all_latencies.size();
  const int64_t total = completed.load() + rejected.load() + failed.load();
  const double qps = wall_seconds > 0 ? completed.load() / wall_seconds : 0;

  std::printf("\nThroughput: %d streams x %d laps x %zu queries at SF %.2f "
              "(budget %lld MB, %d active, %d threads/query)\n\n",
              streams, laps, queries.size(), physical_sf,
              static_cast<long long>(budget_mb), max_active, query_threads);
  TablePrinter t({"Metric", "Value"});
  t.AddRow({"queries completed", std::to_string(completed.load())});
  t.AddRow({"queries rejected", std::to_string(rejected.load())});
  t.AddRow({"queries failed", std::to_string(failed.load())});
  t.AddRow({"answer mismatches", std::to_string(mismatches.load())});
  t.AddRow({"wall seconds", TablePrinter::Fixed(wall_seconds, 3)});
  t.AddRow({"queries / sec", TablePrinter::Fixed(qps, 2)});
  t.AddRow({"latency mean (s)", TablePrinter::Fixed(mean_latency, 4)});
  t.AddRow({"latency p50 (s)", TablePrinter::Fixed(p50, 4)});
  t.AddRow({"latency p95 (s)", TablePrinter::Fixed(p95, 4)});
  t.AddRow({"latency p99 (s)", TablePrinter::Fixed(p99, 4)});
  t.AddRow({"isolated sum (s)", TablePrinter::Fixed(isolated_sum_seconds, 3)});
  t.AddRow({"peak reserved (MB)",
            TablePrinter::Fixed(peak_reserved / (1024.0 * 1024.0), 1)});
  t.Print(std::cout);
  std::printf("\nStream-count vs tail-latency: raise --streams and watch "
              "p99 grow while queries/sec saturates near the pool's "
              "capacity (EXPERIMENTS.md).\n");

  // ---- Observability outputs (ISSUE #7) ----
  const auto scalars = wimpi::obs::MetricsRegistry::Global().ScalarSnapshot();
  if (slo_us > 0) {
    std::printf("\nSLO (objective %lld us, target %.3f):\n",
                static_cast<long long>(slo_us), slo_target);
    TablePrinter st({"Metric", "Value"});
    for (const auto& [name, value] : scalars) {
      if (name.rfind("slo.", 0) == 0) {
        st.AddRow({name, TablePrinter::Fixed(value, 4)});
      }
    }
    st.Print(std::cout);
    auto& slog = wimpi::obs::flight::SlowQueryLog::Global();
    std::printf("slow-query log: %lld entries (total %lld)\n",
                static_cast<long long>(slog.size()),
                static_cast<long long>(slog.total()));
  }
  if (!slow_log.empty() &&
      !wimpi::obs::flight::SlowQueryLog::Global().WriteFile(slow_log)) {
    std::fprintf(stderr, "FAIL: cannot write slow-query log %s\n",
                 slow_log.c_str());
    return 1;
  }
  if (!expo_path.empty()) {
    std::string error;
    if (!wimpi::WriteTextFile(
            expo_path, wimpi::obs::ExpositionFormat::WriteGlobal(), &error)) {
      std::fprintf(stderr, "FAIL: exposition: %s\n", error.c_str());
      return 1;
    }
  }

  // ---- Machine-readable artifact ----
  const std::string json_path = cli.GetString("json", "");
  if (!json_path.empty()) {
    wimpi::bench::RunArtifact artifact =
        wimpi::bench::MakeArtifact("throughput", physical_sf);
    auto& row = artifact.rows["throughput"];
    // Deterministic (gated at zero tolerance).
    row["completed"] = static_cast<double>(completed.load());
    row["rejected"] = static_cast<double>(rejected.load());
    row["failed"] = static_cast<double>(failed.load());
    row["answer_mismatches"] = static_cast<double>(mismatches.load());
    row["mem_peak_over_budget"] = over_budget ? 1.0 : 0.0;
    row["pipelines"] = static_cast<double>(pipelines.load());
    row["tasks"] = static_cast<double>(tasks.load());
    for (const int q : queries) {
      // Folded to 32 bits so the value is exact in a double.
      row["q" + std::to_string(q) + ".checksum"] =
          static_cast<double>(isolated_checksum[q] & 0xFFFFFFFFull);
    }
    // Measured (informational unless --wall-tol).
    row["wall_seconds"] = wall_seconds;
    row["queries_per_wall_second"] = qps;
    row["mean_latency_seconds"] = mean_latency;
    row["p50_wall_seconds"] = p50;
    row["p95_wall_seconds"] = p95;
    row["p99_wall_seconds"] = p99;
    row["isolated_sum_seconds"] = isolated_sum_seconds;
    if (!wimpi::bench::WriteArtifact(json_path, artifact)) return 1;
  }

  if (mismatches.load() != 0) {
    std::fprintf(stderr, "FAIL: %lld answers differed from isolated runs\n",
                 static_cast<long long>(mismatches.load()));
    return 1;
  }
  if (over_budget) {
    std::fprintf(stderr,
                 "FAIL: peak reserved %lld bytes exceeded budget %lld\n",
                 static_cast<long long>(peak_reserved),
                 static_cast<long long>(budget_bytes));
    return 1;
  }
  if (failed.load() != 0 || total != streams * laps *
                                         static_cast<int64_t>(queries.size())) {
    std::fprintf(stderr, "FAIL: %lld queries failed\n",
                 static_cast<long long>(failed.load()));
    return 1;
  }
  return 0;
}
