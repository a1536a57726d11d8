#include "cluster/wimpi_cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "cluster/partials.h"
#include "cluster/partition.h"
#include "exec/exec_options.h"
#include "obs/export/aggregate.h"
#include "obs/flight/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/tracing/span.h"
#include "parallel/cancellation.h"
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

// Event builders for the modeled-time process of `root`'s trace.
obs::TraceEvent ModeledEvent(std::string name, const char* category, int tid,
                             double t, const obs::SpanContext& root) {
  obs::TraceEvent e;
  e.name = std::move(name);
  e.category = category;
  e.pid = obs::kTracePidCluster;
  e.tid = tid;
  e.ts_us = ModeledUs(t);
  e.trace_id = root.trace_id;
  return e;
}

// The run's root span on lane 0, covering the whole modeled run.
void RecordRoot(std::string name, double seconds, std::string args,
                const obs::SpanContext& root) {
  obs::TraceEvent e = ModeledEvent(std::move(name), "cluster", 0, 0, root);
  e.dur_us = ModeledUs(seconds);
  e.span_id = root.span_id;
  e.args_json = std::move(args);
  obs::TraceSink::Global().Record(std::move(e));
}

// A span from t0 to t1 (or, with phase 'i', an instant at t0) under
// `parent`; returns its span id.
uint64_t RecordSpan(std::string name, const char* category, int tid,
                    double t0, double t1, uint64_t parent, std::string args,
                    const obs::SpanContext& root, char phase = 'X') {
  obs::TraceEvent e = ModeledEvent(std::move(name), category, tid, t0, root);
  e.phase = phase;
  if (phase == 'X') e.dur_us = ModeledUs(t1) - e.ts_us;
  e.span_id = obs::NewSpanId();
  e.parent_id = parent;
  e.args_json = std::move(args);
  const uint64_t id = e.span_id;
  obs::TraceSink::Global().Record(std::move(e));
  return id;
}

void RecordInstant(std::string name, const char* category, int tid, double t,
                   uint64_t parent, std::string args,
                   const obs::SpanContext& root) {
  RecordSpan(std::move(name), category, tid, t, t, parent, std::move(args),
             root, 'i');
}

// The fault instant of a failed attempt, on its node's lane.
void RecordFault(const AttemptRecord& a, const FaultPlan& plan,
                 uint64_t attempt_span, const obs::SpanContext& root) {
  RecordInstant(FaultLabel(a, plan), "cluster.fault", NodeLane(a.node),
                a.end_seconds, attempt_span, "", root);
}

// A causal arrow (an 's'/'f' flow pair) from `from_node`'s lane at t_from
// to `to_node`'s lane at t_to.
void RecordFlow(const char* name, int from_node, double t_from, int to_node,
                double t_to, const obs::SpanContext& root) {
  const uint64_t flow = obs::NewSpanId();
  for (const bool start : {true, false}) {
    const int node = start ? from_node : to_node;
    obs::TraceEvent e = ModeledEvent(name, "cluster.flow", NodeLane(node),
                                     start ? t_from : t_to, root);
    e.phase = start ? 's' : 'f';
    e.flow_id = flow;
    obs::TraceSink::Global().Record(std::move(e));
  }
}

// The umbrella span of partition `p` from t0 to t1; returns its span id.
uint64_t RecordPartition(int p, double t0, double t1, std::string args,
                         const obs::SpanContext& root) {
  return RecordSpan("partition " + std::to_string(p), "cluster.partition",
                    PartitionLane(p), t0, t1, root.span_id, std::move(args),
                    root);
}

// Exports the run's modeled timeline as one causal span tree under
// `root`:
//
//   Q<q> distributed                      (root, lane 0)
//   `- partition p                        (lane 1000+p)
//      `- attempt 0 on its home node      (lane 1+node)
//         `- attempt 1 ...                (retry chain: each retry is a
//            `- attempt 2 ...              child of the attempt it retries)
//
// Every failed attempt additionally gets a fault instant event (child of
// the failed attempt) and a flow arrow from the failure to the retry or
// reassigned attempt it triggered, so a straggler's recovery history reads
// directly off the trace.
void EmitClusterTrace(int q, const DistributedRun& run, const FaultPlan& plan,
                      const obs::SpanContext& root) {
  char args[120];
  std::snprintf(args, sizeof(args),
                "{\"nodes\":%d,\"retries\":%d,\"reassigned\":%d}",
                run.nodes_used, run.retries, run.reassigned_partitions);
  RecordRoot("Q" + std::to_string(q) + " distributed", run.total_seconds,
             args, root);

  // Group the (partition-ordered) timeline by partition.
  std::map<int, std::vector<const AttemptRecord*>> by_partition;
  for (const AttemptRecord& a : run.attempts) {
    by_partition[a.partition].push_back(&a);
  }

  for (const auto& [p, attempts] : by_partition) {
    uint64_t prev_span =
        RecordPartition(p, attempts.front()->start_seconds,
                        attempts.back()->end_seconds, "", root);
    for (size_t i = 0; i < attempts.size(); ++i) {
      const AttemptRecord& a = *attempts[i];
      char name[64];
      std::snprintf(name, sizeof(name), "Q%d p%d try%d", q, a.partition,
                    a.attempt);
      std::snprintf(
          args, sizeof(args),
          "{\"partition\":%d,\"node\":%d,\"attempt\":%d,\"outcome\":\"%s\"}",
          a.partition, a.node, a.attempt,
          Status::CodeName(a.outcome).c_str());
      const uint64_t attempt_span =
          RecordSpan(name, "cluster.attempt", NodeLane(a.node),
                     a.start_seconds, a.end_seconds, prev_span, args, root);
      if (a.outcome != StatusCode::kOk) {
        RecordFault(a, plan, attempt_span, root);
        if (i + 1 < attempts.size()) {
          // Causal arrow: this failure triggered the next attempt.
          const AttemptRecord& next = *attempts[i + 1];
          RecordFlow("retry", a.node, a.end_seconds, next.node,
                     next.start_seconds, root);
        }
      }
      prev_span = attempt_span;
    }
  }
}

// Fine-grained recovery timeline (DESIGN.md §14). Same lane layout as the
// retry trace, but the unit of work is a morsel-range segment:
//
//   Q<q> distributed [fine]                (root, lane 0)
//   `- partition p {morsels:M}             (lane 1000+p)
//      `- Q<q> p<p> seg<k>                 (lane 1+node, one per segment)
//
// Every steal gets an instant on the thief's lane (parented to the thief's
// stolen segment) plus a "steal" flow arrow from the victim's lane; every
// checkpoint publish gets a "ckpt" instant carrying {partition, morsels,
// bytes} — so per partition the ckpt morsels sum to the partition's
// morsel count, the invariant `wimpi_check cluster` enforces. Lost segments
// get a fault instant and a "recover" flow to the segment that re-executes
// the lost range.
void EmitFineTrace(int q, const DistributedRun& run, const FaultPlan& plan,
                   const std::vector<int>& morsels,
                   const std::vector<CheckpointRecord>& ckpts,
                   const obs::SpanContext& root) {
  char args[180];
  std::snprintf(args, sizeof(args),
                "{\"nodes\":%d,\"steals\":%d,\"ckpts\":%d,"
                "\"recovered\":%d,\"mode\":\"fine\"}",
                run.nodes_used, run.steals, run.checkpoints,
                run.recovered_morsels);
  RecordRoot("Q" + std::to_string(q) + " distributed [fine]",
             run.total_seconds, args, root);

  std::map<int, std::vector<const AttemptRecord*>> by_partition;
  for (const AttemptRecord& a : run.attempts) {
    by_partition[a.partition].push_back(&a);
  }

  std::map<int, uint64_t> partition_span;
  std::map<const AttemptRecord*, uint64_t> span_of;
  for (const auto& [p, segs] : by_partition) {
    double t0 = segs.front()->start_seconds;
    double t1 = segs.front()->end_seconds;
    for (const AttemptRecord* a : segs) {
      t0 = std::min(t0, a->start_seconds);
      t1 = std::max(t1, a->end_seconds);
    }
    std::snprintf(args, sizeof(args), "{\"partition\":%d,\"morsels\":%d}", p,
                  morsels[p]);
    partition_span[p] = RecordPartition(p, t0, t1, args, root);

    for (const AttemptRecord* a : segs) {
      char name[64];
      std::snprintf(name, sizeof(name), "Q%d p%d seg%d", q, a->partition,
                    a->attempt);
      std::snprintf(args, sizeof(args),
                    "{\"partition\":%d,\"node\":%d,\"begin\":%d,\"end\":%d,"
                    "\"stolen\":%s,\"prev\":%d,\"outcome\":\"%s\"}",
                    a->partition, a->node, a->morsel_begin, a->morsel_end,
                    a->stolen ? "true" : "false", a->prev_node,
                    Status::CodeName(a->outcome).c_str());
      span_of[a] = RecordSpan(name, "cluster.attempt", NodeLane(a->node),
                              a->start_seconds, a->end_seconds,
                              partition_span[p], args, root);
      if (a->outcome == StatusCode::kOk) continue;
      RecordFault(*a, plan, span_of[a], root);
      // The segment that re-executes the lost range starts at its begin
      // morsel after the loss: link the fault to it.
      for (const AttemptRecord* b : segs) {
        if (b == a || b->morsel_begin != a->morsel_begin ||
            b->start_seconds < a->end_seconds - 1e-9) {
          continue;
        }
        RecordFlow("recover", a->node, a->end_seconds, b->node,
                   b->start_seconds, root);
        break;
      }
    }
  }

  for (const StealRecord& sr : run.steal_log) {
    uint64_t parent = partition_span[sr.partition];
    for (const AttemptRecord* a : by_partition[sr.partition]) {
      if (a->node == sr.thief && a->stolen &&
          a->morsel_begin == sr.begin) {
        parent = span_of[a];
        break;
      }
    }
    std::snprintf(args, sizeof(args),
                  "{\"partition\":%d,\"victim\":%d,\"thief\":%d,"
                  "\"morsels\":%d}",
                  sr.partition, sr.victim, sr.thief, sr.end - sr.begin);
    RecordInstant("steal", "cluster.steal", NodeLane(sr.thief),
                  sr.at_seconds, parent, args, root);
    RecordFlow("steal", sr.victim, sr.at_seconds, sr.thief, sr.at_seconds,
               root);
  }

  for (const CheckpointRecord& ck : ckpts) {
    std::snprintf(args, sizeof(args),
                  "{\"partition\":%d,\"morsels\":%d,\"bytes\":%.0f}",
                  ck.partition, ck.morsels, ck.bytes);
    RecordInstant("ckpt", "cluster.ckpt", NodeLane(ck.node), ck.at_seconds,
                  partition_span[ck.partition], args, root);
  }
}

}  // namespace

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

  // Tracing context, allocated up front so the real-clock partial
  // executions and the modeled timeline emitted at the end share one
  // trace id. Purely observational: a traced run computes the exact same
  // schedule, times, and result as an untraced one.
  const bool traced = obs::TraceSink::Global().enabled();
  obs::SpanContext root_ctx;
  if (traced) {
    root_ctx.trace_id = obs::NewTraceId();
    root_ctx.span_id = obs::NewSpanId();
    run.trace_id = root_ctx.trace_id;
  }

  // Partial-result sizes that scale with data (per-group outputs like Q3's)
  // are projected to the model SF; few-row aggregates are not.
  auto scaled_bytes = [&](const exec::Relation& r) {
    const double bytes = static_cast<double>(r.ValueBytes());
    return r.num_rows() > 100 ? bytes * opts_.sf_scale : bytes;
  };

  // ---- Real execution per partition (lazy: a query abandoned mid-way
  // never executes the remaining partitions, and the cancellation token
  // stops any in-flight morsel loop of the current one promptly). ----
  std::vector<PartitionExec> parts(nodes);
  parallel::CancellationToken cancel;
  auto ensure_exec = [&](int p) -> const PartitionExec& {
    PartitionExec& pe = parts[p];
    if (pe.done) return pe;
    exec::QueryStats stats;
    {
      // Join the host-side execution (operator scopes, morsel tasks on
      // pool workers) to the distributed trace: the partial's real-clock
      // spans become children of the run's modeled root span.
      obs::ScopedSpanContext adopt(traced ? root_ctx
                                          : obs::CurrentSpanContext());
      obs::Span span("partial p" + std::to_string(p), "cluster.exec", "");
      exec::ExecOptions eopts = exec::CurrentExecOptions();
      eopts.cancellation = &cancel;
      exec::ScopedExecOptions scope(eopts);
      pe.partial = RunPartial(q, node_dbs_[p], &stats);
    }
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
      cancel.Cancel();
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

    if (traced) {
      EmitFineTrace(q, run, plan, fin.morsels, sched.checkpoints, root_ctx);
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
          cancel.Cancel();  // stop any in-flight partial work promptly
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
          cancel.Cancel();
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
  // identical whether or not tracing was on.
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
  if (traced) EmitClusterTrace(q, run, plan, root_ctx);
  return run;
}

}  // namespace wimpi::cluster
