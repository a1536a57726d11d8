// wimpi_top: `top` for the simulated WIMPI cluster. Runs a distributed
// TPC-H query under a seed-derived fault plan and renders a per-node
// utilization/retry table — the straggler-diagnosis view: which node is
// throttled, which one died, where the retries went, and how skewed the
// busy time ended up (skew = max/mean; 1.0 means perfectly balanced).
//
// With --iters N it steps through N consecutive fault seeds; --follow
// redraws in place (ANSI clear) so the table reads like a live dashboard.
// --fine switches the cluster to fine-grained recovery (morsel ranges +
// checkpoints + stealing, DESIGN.md §14): the table gains a "stolen"
// column (morsels each node executed that were stolen from a live
// victim — the cross-node rebalancing view) and --resize additionally
// applies a seed-derived membership plan (joined nodes appear as extra
// rows past the initial pool).
//
//   ./examples/wimpi_top [--query 1] [--sf 0.05] [--model-sf 10]
//                        [--nodes 24] [--seed 42] [--iters 1] [--follow]
//                        [--fine] [--resize]
//
// With --service the view flips to the concurrent query service on one
// node: closed-loop sessions hammer a QueryService while the dashboard
// renders active/queued/rejected counts and per-session latency
// percentiles from the live metrics registry.
//
//   ./examples/wimpi_top --service [--streams 4] [--sf 0.01]
//                        [--iters 5] [--interval-ms 500] [--follow]
//                        [--slo-us 250000]
//
// The service view also renders the always-on telemetry (ISSUE #7): SLO
// attainment/burn-rate per priority class, flight-recorder totals, and
// the tail of the slow-query log.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/wimpi_cluster.h"
#include "common/cli.h"
#include "common/table_printer.h"
#include "obs/flight/flight_recorder.h"
#include "obs/flight/slow_query_log.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace {

struct NodeStats {
  double busy_s = 0;
  int attempts = 0;
  int failed = 0;
  int partitions = 0;   // successful attempts == partitions served
  int stolen_morsels = 0;  // morsels executed here but stolen elsewhere
};

// --service mode: drive a live QueryService with closed-loop sessions and
// render its state from the global metrics registry — the same counters,
// gauges, and histograms a real deployment would scrape.
int RunServiceTop(const wimpi::CommandLine& cli) {
  using wimpi::TablePrinter;
  const int streams = static_cast<int>(cli.GetInt("streams", 4));
  const double sf = cli.GetDouble("sf", 0.01);
  const int iters = static_cast<int>(cli.GetInt("iters", 5));
  const int interval_ms = static_cast<int>(cli.GetInt("interval-ms", 500));
  const bool follow = cli.GetBool("follow", false);
  const int64_t slo_us = cli.GetInt("slo-us", 250 * 1000);

  wimpi::tpch::GenOptions gen;
  gen.scale_factor = sf;
  const wimpi::engine::Database db = wimpi::tpch::GenerateDatabase(gen);

  wimpi::service::ServiceOptions sopts;
  sopts.track_session_metrics = true;
  if (slo_us > 0) sopts.slo.default_objective_us = slo_us;
  wimpi::service::QueryService svc(sopts);

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int s = 0; s < streams; ++s) {
    clients.emplace_back([&, s] {
      wimpi::service::ClientSession session(&svc,
                                            "stream" + std::to_string(s),
                                            1.0 + (s % 2));  // mixed priority
      int i = s * 5;  // rotated query order per stream
      while (!stop.load(std::memory_order_relaxed)) {
        const int q = 1 + (i++ % 22);
        wimpi::service::QuerySpec spec;
        spec.label = "q" + std::to_string(q);
        spec.plan = [&db, q](wimpi::exec::QueryStats* st) {
          return wimpi::tpch::RunQuery(q, db, st);
        };
        (void)session.Execute(std::move(spec));
      }
    });
  }

  auto& reg = wimpi::obs::MetricsRegistry::Global();
  for (int iter = 0; iter < iters; ++iter) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    if (follow) std::printf("\x1b[2J\x1b[H");  // clear + home
    const auto scalars = reg.ScalarSnapshot();
    auto scalar = [&](const std::string& name) {
      const auto it = scalars.find(name);
      return it == scalars.end() ? 0.0 : it->second;
    };
    std::printf(
        "wimpi_top --service — %d streams at SF %g | active %.0f, queued "
        "%.0f | submitted %.0f, completed %.0f, rejected %.0f, cancelled "
        "%.0f, timeout %.0f | pool queue depth %.0f\n",
        streams, sf, scalar("service.active"), scalar("service.queued"),
        scalar("service.submitted"), scalar("service.completed"),
        scalar("service.rejected"), scalar("service.cancelled"),
        scalar("service.timeout"), scalar("pool.queue_depth"));

    TablePrinter t({"session", "queries", "p50 (ms)", "p99 (ms)"});
    for (int s = 0; s < streams; ++s) {
      const auto& h = reg.histogram("service.session.stream" +
                                    std::to_string(s) + ".latency_us");
      t.AddRow({"stream" + std::to_string(s), std::to_string(h.Count()),
                TablePrinter::Fixed(h.Percentile(0.5) / 1000.0, 2),
                TablePrinter::Fixed(h.Percentile(0.99) / 1000.0, 2)});
    }
    t.Print(std::cout);

    // SLO attainment per priority class (slo.p<class>.* scalars).
    std::map<std::string, std::map<std::string, double>> slo_classes;
    for (const auto& [name, value] : scalars) {
      if (name.rfind("slo.p", 0) != 0) continue;
      const size_t dot = name.find('.', 5);
      if (dot == std::string::npos) continue;
      slo_classes[name.substr(4, dot - 4)][name.substr(dot + 1)] = value;
    }
    if (!slo_classes.empty()) {
      TablePrinter slo_t({"class", "objective (ms)", "attainment",
                          "burn rate", "total", "breaches"});
      for (const auto& [cls, fields] : slo_classes) {
        auto field = [&](const std::string& key) {
          const auto it = fields.find(key);
          return it == fields.end() ? 0.0 : it->second;
        };
        slo_t.AddRow({cls,
                      TablePrinter::Fixed(field("objective_us") / 1000.0, 1),
                      TablePrinter::Fixed(field("attainment"), 4),
                      TablePrinter::Fixed(field("burn_rate"), 2),
                      TablePrinter::Fixed(field("total"), 0),
                      TablePrinter::Fixed(field("breaches"), 0)});
      }
      slo_t.Print(std::cout);
    }

    // Flight recorder health, from the same registry a scraper would read.
    const auto& rec = wimpi::obs::flight::FlightRecorder::Global();
    std::printf(
        "flight: %s, %lld events in %zu ring(s) (%lld overwritten) | "
        "triggers: latency %.0f, status %.0f, fault %.0f | dumps %.0f\n",
        rec.enabled() ? "on" : "off",
        static_cast<long long>(rec.TotalRecorded()), rec.ring_count(),
        static_cast<long long>(rec.TotalDropped()),
        scalar("flight.trigger.latency"), scalar("flight.trigger.status"),
        scalar("flight.trigger.fault"), scalar("flight.dumps"));

    // Tail of the slow-query log: the most recent triggered queries.
    const auto slow = wimpi::obs::flight::SlowQueryLog::Global().Snapshot();
    if (!slow.empty()) {
      TablePrinter sq({"slow query", "trigger", "status", "wall (ms)",
                       "queue (ms)", "cpu (ms)"});
      const size_t first = slow.size() > 3 ? slow.size() - 3 : 0;
      for (size_t k = first; k < slow.size(); ++k) {
        const auto& e = slow[k];
        sq.AddRow({e.label, e.trigger, e.status,
                   TablePrinter::Fixed(e.report.wall_us / 1000.0, 2),
                   TablePrinter::Fixed(e.report.queue_wait_us / 1000.0, 2),
                   TablePrinter::Fixed(e.report.cpu_us / 1000.0, 2)});
      }
      sq.Print(std::cout);
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& c : clients) c.join();
  const auto& lat = reg.histogram("service.latency_us");
  std::printf(
      "done: %lld queries, service-wide p50 %.2f ms / p95 %.2f ms / p99 "
      "%.2f ms\n",
      static_cast<long long>(lat.Count()), lat.Percentile(0.5) / 1000.0,
      lat.Percentile(0.95) / 1000.0, lat.Percentile(0.99) / 1000.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using wimpi::TablePrinter;

  const wimpi::CommandLine cli(argc, argv);
  if (cli.GetBool("service", false)) return RunServiceTop(cli);
  const int query = static_cast<int>(cli.GetInt("query", 1));
  const double sf = cli.GetDouble("sf", 0.05);
  const double model_sf = cli.GetDouble("model-sf", 10.0);
  const int nodes = static_cast<int>(cli.GetInt("nodes", 24));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  const int iters = static_cast<int>(cli.GetInt("iters", 1));
  const bool follow = cli.GetBool("follow", false);
  const bool fine = cli.GetBool("fine", false);
  const bool resize = cli.GetBool("resize", false);

  if (!wimpi::tpch::InSf10Subset(query)) {
    std::printf("query must be one of 1,3,4,5,6,13,14,19\n");
    return 1;
  }

  wimpi::tpch::GenOptions gen;
  gen.scale_factor = sf;
  const wimpi::engine::Database db = wimpi::tpch::GenerateDatabase(gen);
  const wimpi::hw::CostModel model;

  for (int iter = 0; iter < iters; ++iter) {
    wimpi::cluster::ClusterOptions opts;
    opts.num_nodes = nodes;
    opts.sf_scale = model_sf / sf;
    opts.faults = wimpi::cluster::FaultPlan::Generate(seed + iter, nodes);
    if (fine) {
      opts.recovery.mode = wimpi::cluster::RecoveryMode::kFineGrained;
      if (resize) {
        opts.resize = wimpi::cluster::ResizePlan::Generate(seed + iter, nodes);
      }
    }
    const wimpi::cluster::WimpiCluster cluster(db, opts);
    const auto run = cluster.Run(query, model);
    if (!run.ok()) {
      std::printf("Q%d seed %llu: %s\n", query,
                  static_cast<unsigned long long>(seed + iter),
                  run.status().ToString().c_str());
      return 1;
    }

    std::map<int, NodeStats> per_node;
    for (int n = 0; n < run->nodes_used; ++n) per_node[n];
    for (const auto& a : run->attempts) {
      NodeStats& s = per_node[a.node];
      s.busy_s += a.end_seconds - a.start_seconds;
      ++s.attempts;
      if (a.outcome == wimpi::StatusCode::kOk) {
        ++s.partitions;
        // Steal provenance (fine mode): credit executed stolen morsels to
        // the thief — the per-node "how much work was rebalanced here"
        // column. Retry-mode attempts never set `stolen`.
        if (a.stolen) s.stolen_morsels += a.morsel_end - a.morsel_begin;
      } else {
        ++s.failed;
      }
    }

    if (follow) std::printf("\x1b[2J\x1b[H");  // clear + home
    std::printf(
        "wimpi_top — Q%d, %d nodes, modeled SF %g, fault seed %llu (%s)\n",
        query, nodes, model_sf,
        static_cast<unsigned long long>(seed + iter),
        opts.faults.empty() ? "no faults" : opts.faults.ToString().c_str());

    // Fine mode: "parts" becomes OK segments (a partition executes as many
    // morsel ranges), and the stolen column shows rebalanced work.
    std::vector<std::string> header = {"node",   "fault",    "parts",
                                       "attempts", "failed", "busy (s)",
                                       "util %"};
    if (fine) {
      header[2] = "segs";
      header.push_back("stolen");
    }
    TablePrinter t(header);
    for (const auto& [node, s] : per_node) {
      const wimpi::cluster::NodeFault* f = opts.faults.FaultFor(node);
      const double util =
          run->total_seconds > 0 ? 100.0 * s.busy_s / run->total_seconds : 0;
      std::vector<std::string> row = {
          std::to_string(node),
          f != nullptr ? wimpi::cluster::FaultKindName(f->kind) : "-",
          std::to_string(s.partitions), std::to_string(s.attempts),
          std::to_string(s.failed), TablePrinter::Fixed(s.busy_s, 3),
          TablePrinter::Fixed(util, 1)};
      if (fine) row.push_back(std::to_string(s.stolen_morsels));
      t.AddRow(std::move(row));
    }
    t.Print(std::cout);

    const auto& roll = run->node_rollups;
    std::printf(
        "total %.3f s (degraded +%.3f s) | %d retries, %d reassigned, "
        "%d node(s) lost | busy skew %.2f (max/mean)\n",
        run->total_seconds, run->degraded_seconds, run->retries,
        run->reassigned_partitions, run->nodes_failed,
        roll.count("node.busy_s.skew") ? roll.at("node.busy_s.skew") : 0.0);
    if (fine) {
      std::printf(
          "fine recovery: %d morsels, %d steals (%d morsels stolen), "
          "%d ckpts, %d recovered | joins %d, leaves %d\n",
          run->total_morsels, run->steals, run->stolen_morsels,
          run->checkpoints, run->recovered_morsels, run->joins,
          run->leaves);
    }
  }
  return 0;
}
