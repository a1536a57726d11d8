#include "cluster/wimpi_cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "cluster/partials.h"
#include "cluster/partition.h"
#include "obs/clock.h"
#include "obs/export/aggregate.h"
#include "obs/flight/flight_recorder.h"
#include "obs/metrics.h"
#include "parallel/steal.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi::cluster {

WimpiCluster::WimpiCluster(const engine::Database& db,
                           const ClusterOptions& opts)
    : opts_(opts) {
  WIMPI_CHECK_GT(opts.num_nodes, 0);
  const auto parts =
      PartitionByKey(db.table("lineitem"), kPartitionKey, opts.num_nodes);
  node_dbs_.resize(opts.num_nodes);
  for (int i = 0; i < opts.num_nodes; ++i) {
    for (const auto& [name, table] : db.tables()) {
      if (name == "lineitem") continue;
      node_dbs_[i].AddTable(table);  // replicated (physically shared)
    }
    node_dbs_[i].AddTable(parts[i]);
  }
}

double WimpiCluster::NetworkSeconds(double bytes, int n_senders) const {
  return bytes * 8.0 / (opts_.node_net_mbps * 1e6) +
         opts_.per_node_latency_s * n_senders;
}

double WimpiCluster::NodeLogicalBytes(double model_sf) const {
  double replicated = 0;
  for (const char* t : {"orders", "customer", "part", "partsupp", "supplier",
                        "nation", "region"}) {
    replicated += tpch::LogicalTableBytes(t, model_sf);
  }
  return replicated +
         tpch::LogicalTableBytes("lineitem", model_sf) / opts_.num_nodes;
}

namespace {

// Failed attempts tolerated on one node before the partition is
// reassigned to a surviving node (crashes reassign immediately).
constexpr int kMaxRetries = 3;
// Capped exponential backoff between attempts of one partition:
// min(kRetryBackoffS * 2^(attempt-1), kRetryBackoffCapS), charged to
// modeled time.
constexpr double kRetryBackoffS = 0.05;
constexpr double kRetryBackoffCapS = 1.0;
// Per-attempt deadline: kTimeoutFactor * the partition's expected node
// seconds under the cost model, floored at kMinTimeoutS.
constexpr double kTimeoutFactor = 4.0;
constexpr double kMinTimeoutS = 0.01;
// Cap on modeled morsels per partition (RecoveryOptions::morsel_rows
// sets their size), so SF-100-class runs stay cheap to model.
constexpr int kMaxMorselsPerPartition = 256;

// Cached real execution of one lineitem partition's partial plan. The
// partition's data and plan are fixed (deterministic hash ranges + replicas
// physically shared in host memory), so its relation and counters are
// identical whichever node the fault schedule runs it on: the partial
// executes once and failed/retried attempts are modeled from the cache.
struct PartitionExec {
  bool done = false;
  exec::Relation partial;
  double work_s = 0;  // modeled local work, spill included
  double spill_s = 0;
  double working_set = 0;
};

// Trace lanes on the modeled-time process: tid 0 is the run itself, one
// row per node for attempts/faults, one row per partition for the
// umbrella spans (so retry chains bouncing across nodes stay readable).
int NodeLane(int node) { return 1 + node; }
int PartitionLane(int p) { return 1000 + p; }

int64_t ModeledUs(double seconds) {
  return static_cast<int64_t>(seconds * 1e6);
}

// What failed: the injected fault's kind for unavailable attempts, the
// deadline for abandoned stragglers.
const char* FaultLabel(const AttemptRecord& a, const FaultPlan& plan) {
  if (a.outcome == StatusCode::kDeadlineExceeded) return "timeout";
  const NodeFault* f = plan.FaultFor(a.node);
  return f != nullptr ? FaultKindName(f->kind) : "unavailable";
}

// Appends the events of one run's trace. Span and flow ids count up from 1
// within the trace (the root span is 1), so one run always renders to the
// same events.
class TraceBuilder {
 public:
  TraceBuilder(uint64_t trace_id, std::vector<obs::TraceEvent>* out)
      : trace_id_(trace_id), out_(out) {}

  static constexpr uint64_t kRoot = 1;

  // A modeled span from t0 to t1 (or, with phase 'i', an instant at t0)
  // under `parent` (0 = the root itself); returns its span id.
  uint64_t Span(std::string name, const char* category, int tid, double t0,
                double t1, uint64_t parent, std::string args,
                char phase = 'X') {
    out_->push_back({.name = std::move(name),
                     .category = category,
                     .phase = phase,
                     .ts_us = ModeledUs(t0),
                     .dur_us = phase == 'X' ? ModeledUs(t1) - ModeledUs(t0) : 0,
                     .tid = tid,
                     .pid = obs::kTracePidCluster,
                     .trace_id = trace_id_,
                     .span_id = next_id_++,
                     .parent_id = parent,
                     .args_json = std::move(args)});
    return out_->back().span_id;
  }

  // A causal arrow (an 's'/'f' flow pair) from `from_node`'s lane at
  // t_from to `to_node`'s lane at t_to. Viewers pair flow ends by id alone,
  // so the id carries the trace id too: traces of several runs can share
  // one file.
  void Flow(const char* name, int from_node, double t_from, int to_node,
            double t_to) {
    const uint64_t flow = trace_id_ << 32 | next_id_++;
    for (const bool start : {true, false}) {
      out_->push_back({.name = name,
                       .category = "cluster.flow",
                       .phase = start ? 's' : 'f',
                       .ts_us = ModeledUs(start ? t_from : t_to),
                       .tid = NodeLane(start ? from_node : to_node),
                       .pid = obs::kTracePidCluster,
                       .trace_id = trace_id_,
                       .flow_id = flow,
                       .args_json = ""});
    }
  }

  // One real-clock span per executed partial, on the host process.
  void HostPartials(const DistributedRun& run) {
    for (size_t p = 0; p < run.partial_host_us.size(); ++p) {
      const auto [start_us, end_us] = run.partial_host_us[p];
      out_->push_back({.name = "partial p" + std::to_string(p),
                       .category = "cluster.exec",
                       .ts_us = start_us,
                       .dur_us = end_us - start_us,
                       .trace_id = trace_id_,
                       .span_id = next_id_++,
                       .parent_id = kRoot,
                       .args_json = ""});
    }
  }

 private:
  uint64_t trace_id_;
  uint64_t next_id_ = kRoot;
  std::vector<obs::TraceEvent>* out_;
};

// The modeled timeline of either recovery mode, one lane per node:
//
//   Q<q> distributed [fine]                (root, lane 0)
//   `- partition p {morsels:M}             (lane 1000+p)
//      `- Q<q> p<p> try<k> | seg<k>        (lane 1+node)
//
// Retry mode chains its attempts (each retry is a child of the attempt it
// retries); fine-grained recovery (DESIGN.md §14) hangs every morsel-range
// segment off its partition. Every failed attempt gets a fault instant and
// a flow arrow to the attempt that redid its work ("retry": the next
// attempt; "recover": the segment that re-executes the lost range), so a
// straggler's recovery history reads directly off the trace. Every steal
// gets an instant on the thief's lane (parented to the thief's stolen
// segment) plus a "steal" flow arrow from the victim's lane; every
// checkpoint publish gets a "ckpt" instant carrying {partition, morsels,
// bytes}, so per partition the ckpt morsels sum to the partition's morsel
// count, the invariant `wimpi_check cluster` enforces.
void ModeledTrace(int q, const DistributedRun& run, const FaultPlan& plan,
                  TraceBuilder* b) {
  const bool fine = !run.partition_morsels.empty();
  char args[180];
  if (fine) {
    std::snprintf(args, sizeof(args),
                  "{\"nodes\":%d,\"steals\":%d,\"ckpts\":%d,"
                  "\"recovered\":%d,\"mode\":\"fine\"}",
                  run.nodes_used, run.steals, run.checkpoints,
                  run.recovered_morsels);
  } else {
    std::snprintf(args, sizeof(args),
                  "{\"nodes\":%d,\"retries\":%d,\"reassigned\":%d}",
                  run.nodes_used, run.retries, run.reassigned_partitions);
  }
  char name[64];
  std::snprintf(name, sizeof(name), "Q%d distributed%s", q,
                fine ? " [fine]" : "");
  b->Span(name, "cluster", 0, 0, run.total_seconds, 0, args);

  std::map<int, std::vector<const AttemptRecord*>> by_partition;
  for (const AttemptRecord& a : run.attempts) {
    by_partition[a.partition].push_back(&a);
  }
  std::map<int, uint64_t> partition_span;
  std::map<const AttemptRecord*, uint64_t> span_of;
  for (const auto& [p, attempts] : by_partition) {
    double t0 = attempts.front()->start_seconds;
    double t1 = attempts.front()->end_seconds;
    for (const AttemptRecord* a : attempts) {
      t0 = std::min(t0, a->start_seconds);
      t1 = std::max(t1, a->end_seconds);
    }
    std::snprintf(args, sizeof(args), "{\"partition\":%d,\"morsels\":%d}", p,
                  fine ? run.partition_morsels[p] : 0);
    partition_span[p] = b->Span("partition " + std::to_string(p),
                                "cluster.partition", PartitionLane(p), t0, t1,
                                TraceBuilder::kRoot, fine ? args : "");
    uint64_t parent = partition_span[p];
    for (size_t i = 0; i < attempts.size(); ++i) {
      const AttemptRecord& a = *attempts[i];
      std::snprintf(name, sizeof(name), "Q%d p%d %s%d", q, a.partition,
                    fine ? "seg" : "try", a.attempt);
      const std::string outcome = Status::CodeName(a.outcome);
      if (fine) {
        std::snprintf(args, sizeof(args),
                      "{\"partition\":%d,\"node\":%d,\"begin\":%d,"
                      "\"end\":%d,\"stolen\":%s,\"prev\":%d,"
                      "\"outcome\":\"%s\"}",
                      a.partition, a.node, a.morsel_begin, a.morsel_end,
                      a.stolen ? "true" : "false", a.prev_node,
                      outcome.c_str());
      } else {
        std::snprintf(args, sizeof(args),
                      "{\"partition\":%d,\"node\":%d,\"attempt\":%d,"
                      "\"outcome\":\"%s\"}",
                      a.partition, a.node, a.attempt, outcome.c_str());
      }
      span_of[&a] = b->Span(name, "cluster.attempt", NodeLane(a.node),
                            a.start_seconds, a.end_seconds, parent, args);
      if (!fine) parent = span_of[&a];
      if (a.outcome == StatusCode::kOk) continue;
      b->Span(FaultLabel(a, plan), "cluster.fault", NodeLane(a.node),
              a.end_seconds, 0, span_of[&a], "", 'i');
      // Link the failure to the attempt that redid its work.
      for (size_t j = fine ? 0 : i + 1; j < attempts.size(); ++j) {
        const AttemptRecord& r = *attempts[j];
        if (fine && (j == i || r.morsel_begin != a.morsel_begin ||
                     r.start_seconds < a.end_seconds - 1e-9)) {
          continue;
        }
        b->Flow(fine ? "recover" : "retry", a.node, a.end_seconds, r.node,
                r.start_seconds);
        break;
      }
    }
  }

  for (const StealRecord& sr : run.steal_log) {
    uint64_t parent = partition_span[sr.partition];
    for (const AttemptRecord* a : by_partition.at(sr.partition)) {
      if (a->node == sr.thief && a->stolen && a->morsel_begin == sr.begin) {
        parent = span_of[a];
        break;
      }
    }
    std::snprintf(args, sizeof(args),
                  "{\"partition\":%d,\"victim\":%d,\"thief\":%d,"
                  "\"morsels\":%d}",
                  sr.partition, sr.victim, sr.thief, sr.end - sr.begin);
    b->Span("steal", "cluster.steal", NodeLane(sr.thief), sr.at_seconds, 0,
            parent, args, 'i');
    b->Flow("steal", sr.victim, sr.at_seconds, sr.thief, sr.at_seconds);
  }
  for (const CheckpointRecord& ck : run.checkpoint_log) {
    std::snprintf(args, sizeof(args),
                  "{\"partition\":%d,\"morsels\":%d,\"bytes\":%.0f}",
                  ck.partition, ck.morsels, ck.bytes);
    b->Span("ckpt", "cluster.ckpt", NodeLane(ck.node), ck.at_seconds, 0,
            partition_span[ck.partition], args, 'i');
  }
}

}  // namespace

std::vector<obs::TraceEvent> ClusterTrace(int q, const DistributedRun& run,
                                          const FaultPlan& faults,
                                          uint64_t trace_id) {
  std::vector<obs::TraceEvent> out;
  TraceBuilder b(trace_id, &out);
  ModeledTrace(q, run, faults, &b);
  b.HostPartials(run);
  return out;
}

Result<DistributedRun> WimpiCluster::Run(int q,
                                         const hw::CostModel& model) const {
  if (!tpch::InSf10Subset(q)) {
    std::string msg = "Q";
    msg += std::to_string(q);
    msg += " is not in the distributed subset {1,3,4,5,6,13,14,19}";
    return Status::InvalidArgument(std::move(msg));
  }
  const hw::HardwareProfile& pi = hw::PiProfile();
  const bool fan_out = QueryFansOut(q);
  const int nodes = fan_out ? opts_.num_nodes : 1;
  const FaultPlan& plan = opts_.faults;

  DistributedRun run;
  run.nodes_used = nodes;

  // Partial-result sizes that scale with data (per-group outputs like Q3's)
  // are projected to the model SF; few-row aggregates are not.
  auto scaled_bytes = [&](const exec::Relation& r) {
    const double bytes = static_cast<double>(r.ValueBytes());
    return r.num_rows() > 100 ? bytes * opts_.sf_scale : bytes;
  };

  // ---- Real execution per partition (lazy, on this thread: a query
  // abandoned mid-way never executes the remaining partitions). ----
  std::vector<PartitionExec> parts(nodes);
  run.partial_host_us.assign(nodes, {0, 0});
  auto ensure_exec = [&](int p) -> const PartitionExec& {
    PartitionExec& pe = parts[p];
    if (pe.done) return pe;
    exec::QueryStats stats;
    const int64_t start_us = obs::NowMicros();
    pe.partial = RunPartial(q, node_dbs_[p], &stats);
    run.partial_host_us[p] = {start_us, obs::NowMicros()};
    stats.Scale(opts_.sf_scale);
    pe.work_s = model.WorkSeconds(pi, stats, opts_.threads_per_node);

    // Memory-pressure model: when the touched working set exceeds node
    // memory, the overshoot pages through the microSD card (the paper's
    // thrashing failure mode, Section III-C4).
    pe.working_set = stats.BaseTouchedBytes() + stats.peak_intermediate_bytes;
    const double overshoot =
        std::max(0.0, pe.working_set - opts_.node_memory_bytes);
    pe.spill_s =
        overshoot * opts_.thrash_factor / (opts_.microsd_mbps * 1e6);
    pe.work_s += pe.spill_s;
    pe.done = true;
    return pe;
  };

  // Shared tail of both recovery modes: ship the partials, merge on the
  // coordinator, add the driver overhead. Identical inputs in identical
  // (partition) order whatever the schedule was — the bit-identity
  // argument lives here.
  auto finish_merge = [&](DistributedRun* r) {
    std::vector<exec::Relation> partials;
    partials.reserve(nodes);
    for (int p = 0; p < nodes; ++p) {
      r->max_working_set_bytes =
          std::max(r->max_working_set_bytes, parts[p].working_set);
      r->network_bytes += scaled_bytes(parts[p].partial);
      partials.push_back(std::move(parts[p].partial));
    }
    // Network: every node ships its partial to the coordinator, whose
    // receive link is the bottleneck.
    r->network_seconds =
        fan_out ? NetworkSeconds(r->network_bytes, nodes) : 0.0;
    // Merge on the coordinator (itself a Pi). Every merge in the
    // distributed subset consumes per-node aggregates (at most tens of
    // rows per node), so merge work does not scale with SF and is modeled
    // unscaled.
    exec::QueryStats merge_stats;
    exec::Relation merged =
        MergePartials(q, node_dbs_[0], std::move(partials), &merge_stats);
    r->merge_seconds =
        model.WorkSeconds(pi, merge_stats, opts_.threads_per_node);
    // One query overhead (driver + plan setup) on the coordinator.
    const double overhead_s = model.QuerySeconds(pi, exec::QueryStats{}, 1);
    r->total_seconds = overhead_s + r->max_node_seconds +
                       r->network_seconds + r->merge_seconds;
    r->result = std::move(merged);
  };

  // ---- Fine-grained recovery (DESIGN.md §14): morsel-range schedule with
  // checkpointed partials, cross-node stealing, and elastic membership.
  // The real partials still execute exactly once per partition; only the
  // modeled schedule below decides which worker's clock pays for which
  // morsels, so any fault x steal x resize interleaving merges the same
  // relation, bit for bit. ----
  if (opts_.recovery.mode == RecoveryMode::kFineGrained) {
    const int pool_nodes = opts_.num_nodes;
    FineInputs fin;
    fin.pool_nodes = pool_nodes;
    fin.faults = plan.empty() ? nullptr : &plan;
    fin.resize = opts_.resize.empty() ? nullptr : &opts_.resize;
    fin.opts = opts_.recovery;
    fin.per_node_latency_s = opts_.per_node_latency_s;
    fin.net_mbps = opts_.node_net_mbps;
    // Morsel basis: the partition's slice of the fan-out table. Q13 does
    // not fan out (its partial scans replicated orders/customer), but that
    // is exactly why its morsels CAN be stolen: any node can execute any
    // orders range, so the paper's one-node Q13 pathology parallelizes.
    const char* basis = fan_out ? "lineitem" : "orders";
    for (int p = 0; p < nodes; ++p) {
      const PartitionExec& pe = ensure_exec(p);
      fin.work_s.push_back(pe.work_s);
      fin.spill_s.push_back(pe.spill_s);
      fin.partial_bytes.push_back(scaled_bytes(pe.partial));
      fin.morsels.push_back(parallel::MorselCountForRows(
          node_dbs_[p].table(basis).num_rows(), opts_.sf_scale,
          opts_.recovery.morsel_rows,
          kMaxMorselsPerPartition));
    }

    FineSchedule sched = SimulateFineGrained(fin);
    if (!sched.completed) {
      std::string msg = "Q";
      msg += std::to_string(q);
      msg += ": every worker failed or left (faults: ";
      msg += plan.ToString();
      msg += "; resize: ";
      msg += opts_.resize.ToString();
      msg += ")";
      return Status::Unavailable(std::move(msg));
    }
    // Degradation = this schedule versus the same inputs with no faults
    // and no resizes (pure modeled re-simulation, no re-execution).
    FineInputs clean_in = fin;
    clean_in.faults = nullptr;
    clean_in.resize = nullptr;
    const FineSchedule clean = SimulateFineGrained(clean_in);

    run.max_node_seconds = sched.makespan_s;
    int slowest = 0;
    for (size_t n = 1; n < sched.node_clock.size(); ++n) {
      if (sched.node_clock[n] > sched.node_clock[slowest]) {
        slowest = static_cast<int>(n);
      }
    }
    run.spill_seconds = sched.node_spill[slowest];
    run.degraded_seconds = sched.makespan_s - clean.makespan_s;
    run.nodes_failed = sched.nodes_failed;
    run.total_morsels = sched.total_morsels;
    run.steals = static_cast<int>(sched.steals.size());
    run.stolen_morsels = sched.stolen_morsels;
    run.checkpoints = static_cast<int>(sched.checkpoints.size());
    run.checkpoint_bytes = sched.checkpoint_bytes;
    run.recovered_morsels = sched.recovered_morsels;
    run.joins = sched.joins;
    run.leaves = sched.leaves;
    run.steal_log = sched.steals;
    run.partition_morsels = fin.morsels;
    run.checkpoint_log = sched.checkpoints;

    // Attempt timeline: segments partition-major, per-partition in start
    // order — the provenance view wimpi_top renders.
    std::vector<MorselSegment> ordered = sched.segments;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const MorselSegment& a, const MorselSegment& b) {
                       if (a.partition != b.partition) {
                         return a.partition < b.partition;
                       }
                       if (a.start_seconds != b.start_seconds) {
                         return a.start_seconds < b.start_seconds;
                       }
                       return a.begin < b.begin;
                     });
    std::vector<char> reassigned(nodes, 0);
    int cur_part = -1;
    int seq = 0;
    for (const MorselSegment& s : ordered) {
      if (s.partition != cur_part) {
        cur_part = s.partition;
        seq = 0;
      }
      AttemptRecord a;
      a.partition = s.partition;
      a.node = s.node;
      a.attempt = seq++;
      a.start_seconds = s.start_seconds;
      a.end_seconds = s.end_seconds;
      a.outcome = s.outcome;
      a.morsel_begin = s.begin;
      a.morsel_end = s.end;
      a.prev_node = s.prev_node;
      a.stolen = s.stolen;
      run.attempts.push_back(a);
      if (s.outcome != StatusCode::kOk) {
        ++run.retries;
        obs::flight::FlightRecorder::NoteFault(
            s.node, static_cast<int64_t>(s.outcome));
      }
      if (s.prev_node >= 0 && s.prev_node != s.node && !s.stolen) {
        reassigned[s.partition] = 1;  // claimed off a dead/departed node
      }
    }
    for (int p = 0; p < nodes; ++p) {
      if (reassigned[p]) ++run.reassigned_partitions;
    }

    // Per-worker accounting over the full membership (pool + joiners).
    const int workers = static_cast<int>(sched.node_clock.size());
    std::vector<int> n_segments(workers, 0);
    std::vector<int> n_failed(workers, 0);
    std::vector<int> n_stolen(workers, 0);
    for (const MorselSegment& s : sched.segments) {
      ++n_segments[s.node];
      if (s.outcome != StatusCode::kOk) ++n_failed[s.node];
      if (s.stolen && s.outcome == StatusCode::kOk) {
        n_stolen[s.node] += s.end - s.begin;
      }
    }
    int used = 0;
    for (int n = 0; n < workers; ++n) {
      if (n_segments[n] > 0) ++used;
    }
    run.nodes_used = used;
    {
      std::vector<std::map<std::string, double>> per_node(workers);
      for (int n = 0; n < workers; ++n) {
        per_node[n]["node.busy_s"] = sched.node_clock[n];
        per_node[n]["node.spill_s"] = sched.node_spill[n];
        per_node[n]["node.attempts"] = n_segments[n];
        per_node[n]["node.failed_attempts"] = n_failed[n];
        per_node[n]["node.stolen_morsels"] = n_stolen[n];
        per_node[n]["node.dead"] = sched.alive[n] ? 0.0 : 1.0;
      }
      run.node_rollups = obs::AggregateNodeScalars(per_node);
    }

    finish_merge(&run);

    auto& reg = obs::MetricsRegistry::Global();
    reg.counter("cluster.steal.count").Add(run.steals);
    reg.counter("cluster.steal.stolen_morsels").Add(run.stolen_morsels);
    reg.counter("cluster.ckpt.count").Add(run.checkpoints);
    reg.counter("cluster.ckpt.bytes")
        .Add(static_cast<int64_t>(run.checkpoint_bytes));
    reg.counter("cluster.ckpt.recovered_morsels").Add(run.recovered_morsels);
    if (run.joins > 0) reg.counter("cluster.resize.joins").Add(run.joins);
    if (run.leaves > 0) reg.counter("cluster.resize.leaves").Add(run.leaves);
    if (!plan.empty()) {
      reg.counter("cluster.fault.attempts")
          .Add(static_cast<int64_t>(run.attempts.size()));
      reg.counter("cluster.fault.retries").Add(run.retries);
      reg.counter("cluster.fault.reassigned_partitions")
          .Add(run.reassigned_partitions);
      reg.counter("cluster.fault.nodes_failed").Add(run.nodes_failed);
    }
    for (const StealRecord& sr : sched.steals) {
      obs::flight::FlightRecorder::Record(
          obs::flight::EventKind::kClusterSteal, 0, sr.thief,
          (static_cast<int64_t>(sr.victim) << 32) | (sr.end - sr.begin));
    }
    for (const CheckpointRecord& ck : sched.checkpoints) {
      obs::flight::FlightRecorder::Record(
          obs::flight::EventKind::kClusterCkpt, 0, ck.node,
          (static_cast<int64_t>(ck.partition) << 32) | ck.morsels);
    }
    return run;
  }

  // ---- Attempt schedule (modeled). Every partition retries on its home
  // node with capped exponential backoff, then reassigns to the surviving
  // node with the least accumulated work; crashes reassign immediately.
  // A partition that has failed 2*kMaxRetries attempts (or has only one
  // node left to run on) stops honouring the deadline and completes as a
  // straggler, so any plan that leaves one live node always finishes. ----
  const int pool_nodes = opts_.num_nodes;
  std::vector<double> node_clock(pool_nodes, 0.0);
  std::vector<double> node_spill(pool_nodes, 0.0);
  std::vector<char> alive(pool_nodes, 1);
  std::vector<int> flaky_used(pool_nodes, 0);  // transient/stall failures used
  int live = pool_nodes;

  for (int p = 0; p < nodes; ++p) {
    const int home = p % pool_nodes;
    int node = home;
    int tries_on_node = 0;
    int attempt_idx = 0;
    bool assigned_away = false;
    for (bool done = false; !done;) {
      WIMPI_CHECK_LT(attempt_idx, 1000) << "fault schedule did not converge";
      // (Re)assign if the current node is gone: cheapest surviving node,
      // lowest index on ties — deterministic.
      if (!alive[node]) {
        int best = -1;
        for (int n = 0; n < pool_nodes; ++n) {
          if (!alive[n]) continue;
          if (best < 0 || node_clock[n] < node_clock[best]) best = n;
        }
        if (best < 0) {
          std::string msg = "Q";
          msg += std::to_string(q);
          msg += ": every node failed (plan: ";
          msg += plan.ToString();
          msg += ")";
          return Status::Unavailable(std::move(msg));
        }
        node = best;
        tries_on_node = 0;
        if (node != home && !assigned_away) {
          assigned_away = true;
          ++run.reassigned_partitions;
        }
      }

      const PartitionExec& pe = ensure_exec(p);
      const double w = pe.work_s;
      const double deadline =
          std::max(kMinTimeoutS, kTimeoutFactor * w);
      // Jittered exponential backoff, capped: the jitter factor in
      // [0.5, 1.5) is a pure hash of (plan seed, partition, attempt), so
      // concurrent retries against a recovering node decorrelate while the
      // whole schedule stays deterministic.
      const double backoff =
          attempt_idx == 0
              ? 0.0
              : std::min(kRetryBackoffCapS,
                         kRetryBackoffS *
                             std::pow(2.0, attempt_idx - 1) *
                             (0.5 + DeterministicJitter(
                                        plan.seed, static_cast<uint64_t>(p),
                                        static_cast<uint64_t>(attempt_idx))));
      // Degraded last resort: no alternative node, or the partition has
      // bounced long enough — accept a straggler run over the deadline.
      const bool last_resort =
          live <= 1 || attempt_idx >= 2 * kMaxRetries;

      const NodeFault* f = plan.FaultFor(node);
      double dur = w;
      StatusCode outcome = StatusCode::kOk;
      bool dies = false;
      if (f != nullptr) {
        switch (f->kind) {
          case FaultKind::kCrash:
            // Crash at the scan->aggregate phase boundary: half the
            // modeled work is spent, plus one round trip to detect it.
            outcome = StatusCode::kUnavailable;
            dur = std::min(0.5 * w, deadline) + opts_.per_node_latency_s;
            dies = true;
            break;
          case FaultKind::kSlowdown:
            dur = w * f->slowdown;
            if (dur > deadline && !last_resort) {
              dur = deadline;
              outcome = StatusCode::kDeadlineExceeded;
            }
            break;
          case FaultKind::kNetworkStall:
            if (flaky_used[node] < f->fail_attempts) {
              ++flaky_used[node];
              dur = w + f->stall_seconds;
              if (dur > deadline && !last_resort) {
                dur = deadline;
                outcome = StatusCode::kDeadlineExceeded;
              }
            }
            break;
          case FaultKind::kTransient:
            if (flaky_used[node] < f->fail_attempts) {
              ++flaky_used[node];
              outcome = StatusCode::kUnavailable;
              dur = std::min(0.5 * w, deadline) + opts_.per_node_latency_s;
            }
            break;
        }
      }

      const double start = node_clock[node] + backoff;
      const double end = start + dur;
      node_clock[node] = end;
      run.attempts.push_back({p, node, attempt_idx, start, end, outcome});
      ++attempt_idx;

      if (dies) {
        alive[node] = 0;
        --live;
        ++run.nodes_failed;
      }
      if (outcome == StatusCode::kOk) {
        node_spill[node] += pe.spill_s;
        done = true;
      } else {
        ++run.retries;
        // Retry-budget guard: a run-wide cap on failed attempts so an
        // adversarial plan (every node flaky, forever) exhausts
        // deterministically instead of bouncing partitions for thousands
        // of modeled attempts. Generated plans stay far under the default
        // budget of 4 * kMaxRetries * num_nodes.
        const int budget = opts_.retry_budget > 0
                               ? opts_.retry_budget
                               : 4 * kMaxRetries * pool_nodes;
        if (run.retries > budget) {
          obs::MetricsRegistry::Global()
              .counter("cluster.retry.exhausted")
              .Add(1);
          std::string msg = "Q";
          msg += std::to_string(q);
          msg += ": retry budget (";
          msg += std::to_string(budget);
          msg += ") exhausted (plan: ";
          msg += plan.ToString();
          msg += ")";
          return Status::Unavailable(std::move(msg));
        }
        // Flight-recorder fault trigger: lands in the always-on rings
        // (and retroactively dumps the recent window when a fault dump
        // path is configured), so a service run disturbed by a simulated
        // fault can be explained after the fact.
        obs::flight::FlightRecorder::NoteFault(
            node, static_cast<int64_t>(outcome));
        if (alive[node]) {
          ++tries_on_node;
          if (tries_on_node >= kMaxRetries && live > 1) {
            // Give up on this node: move to the cheapest other survivor.
            int best = -1;
            for (int n = 0; n < pool_nodes; ++n) {
              if (!alive[n] || n == node) continue;
              if (best < 0 || node_clock[n] < node_clock[best]) best = n;
            }
            if (best >= 0) {
              node = best;
              tries_on_node = 0;
              if (node != home && !assigned_away) {
                assigned_away = true;
                ++run.reassigned_partitions;
              }
            }
          }
        }
      }
    }
  }

  // Slowest node bounds local work; spill attribution follows it.
  for (int n = 0; n < pool_nodes; ++n) {
    if (node_clock[n] > run.max_node_seconds) {
      run.max_node_seconds = node_clock[n];
      run.spill_seconds = node_spill[n];
    }
  }
  double clean_max_node = 0;
  for (int p = 0; p < nodes; ++p) {
    clean_max_node = std::max(clean_max_node, parts[p].work_s);
  }
  // Faults only stretch local work; network, merge and overhead are
  // identical to the clean run, so the degradation is the node-time delta.
  run.degraded_seconds = run.max_node_seconds - clean_max_node;

  finish_merge(&run);

  // Per-node scalar rollups (straggler diagnosis): min/max/sum/mean/skew
  // of each node's modeled load. Derived from modeled quantities only, so
  // deterministic.
  {
    std::vector<int> n_attempts(pool_nodes, 0);
    std::vector<int> n_failed(pool_nodes, 0);
    for (const AttemptRecord& a : run.attempts) {
      ++n_attempts[a.node];
      if (a.outcome != StatusCode::kOk) ++n_failed[a.node];
    }
    // A query that does not fan out rolls up node 0 plus every node a
    // fault moved it to.
    std::vector<std::map<std::string, double>> per_node;
    for (int n = 0; n < pool_nodes; ++n) {
      if (!fan_out && n != 0 && n_attempts[n] == 0) continue;
      auto& row = per_node.emplace_back();
      row["node.busy_s"] = node_clock[n];
      row["node.spill_s"] = node_spill[n];
      row["node.attempts"] = n_attempts[n];
      row["node.failed_attempts"] = n_failed[n];
      row["node.dead"] = alive[n] ? 0.0 : 1.0;
    }
    run.node_rollups = obs::AggregateNodeScalars(per_node);
  }

  if (!plan.empty()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.counter("cluster.fault.attempts")
        .Add(static_cast<int64_t>(run.attempts.size()));
    reg.counter("cluster.fault.retries").Add(run.retries);
    reg.counter("cluster.fault.reassigned_partitions")
        .Add(run.reassigned_partitions);
    reg.counter("cluster.fault.nodes_failed").Add(run.nodes_failed);
  }
  return run;
}

}  // namespace wimpi::cluster
