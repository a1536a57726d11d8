#ifndef WIMPI_CLUSTER_WIMPI_CLUSTER_H_
#define WIMPI_CLUSTER_WIMPI_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fault.h"
#include "cluster/recovery.h"
#include "common/status.h"
#include "engine/database.h"
#include "exec/relation.h"
#include "hw/cost_model.h"
#include "hw/profile.h"

namespace wimpi::cluster {

// Configuration of the simulated WIMPI cluster (defaults follow the paper's
// prototype: Raspberry Pi 3B+ nodes, 1 GB RAM, GbE limited to ~220 Mbps by
// the shared USB bus, microSD-class storage behind disabled swap).
struct ClusterOptions {
  int num_nodes = 24;
  double node_memory_bytes = 1024.0 * 1024 * 1024;
  double node_net_mbps = 220.0;
  double per_node_latency_s = 0.002;  // request/response round trip
  double microsd_mbps = 15.0;         // effective microSD bandwidth
  // Thrash multiplier: bytes of microSD traffic caused per byte of
  // working-set overshoot (page evictions + reloads).
  double thrash_factor = 1.0;
  // Counter multiplier: model SF / physically executed SF. The queries run
  // for real at the physical SF; counters and working sets are scaled to
  // the modeled SF (see DESIGN.md §2).
  double sf_scale = 1.0;
  int threads_per_node = 4;

  // ---- fault injection & recovery (DESIGN.md §9) ----
  // Empty plan (the default): every partition runs once on its home node,
  // and the results and modeled times are bit-identical to a run of any
  // plan that leaves a live node, minus the recovery time.
  FaultPlan faults;
  // Total failed attempts tolerated across the whole run before Run()
  // stops retrying and returns kUnavailable (surfaced through the
  // cluster.retry.exhausted counter). 0 derives the default budget,
  // 4 * kMaxRetries * num_nodes — generous enough that every generated
  // FaultPlan converges, tight enough that an adversarial plan exhausts
  // deterministically instead of spinning. The per-node retry limit, the
  // backoff and the per-attempt deadline are constants in wimpi_cluster.cc.
  int retry_budget = 0;

  // ---- fine-grained recovery (DESIGN.md §14) ----
  // kRetry (the default) keeps the whole-partition schedule above;
  // kFineGrained executes morsel ranges with checkpointed partials,
  // cross-node stealing, and elastic membership.
  RecoveryOptions recovery;
  // Membership changes during the run (fine-grained mode only).
  ResizePlan resize;
};

// One scheduling attempt of a lineitem partition on a node, in modeled
// node-clock seconds. outcome: kOk on success, kUnavailable for a crashed
// or transiently failing node, kDeadlineExceeded for a straggler that blew
// its deadline.
struct AttemptRecord {
  int partition = 0;
  int node = 0;
  int attempt = 0;  // 0-based, per partition
  double start_seconds = 0;
  double end_seconds = 0;
  StatusCode outcome = StatusCode::kOk;
  // Steal provenance (fine-grained recovery only; retry-mode attempts
  // cover the whole partition and leave morsel_end at 0). The attempt
  // executed morsels [morsel_begin, morsel_end); prev_node is where the
  // range came from (-1 = initial assignment), stolen says whether it was
  // taken from a live victim rather than reassigned from a dead one.
  int morsel_begin = 0;
  int morsel_end = 0;
  int prev_node = -1;
  bool stolen = false;
};

// Per-query result of a simulated distributed execution.
struct DistributedRun {
  exec::Relation result;        // equals the single-node query answer
  double total_seconds = 0;     // simulated end-to-end time
  double max_node_seconds = 0;  // slowest node's local work
  double spill_seconds = 0;     // included in max_node_seconds
  double network_seconds = 0;
  double merge_seconds = 0;
  double network_bytes = 0;
  double max_working_set_bytes = 0;  // worst node's working set (scaled)
  int nodes_used = 1;

  // ---- recovery accounting (all zero on a fault-free run) ----
  int retries = 0;                 // failed attempts that were retried
  int reassigned_partitions = 0;   // partitions that left their home node
  int nodes_failed = 0;            // nodes observed crashed during the run
  // Extra modeled time the faults cost: total_seconds minus what this very
  // run would have taken with an empty FaultPlan.
  double degraded_seconds = 0;
  // Per-attempt timeline in partition order (one kOk entry per partition
  // on a clean run).
  std::vector<AttemptRecord> attempts;

  // ---- fine-grained recovery accounting (kFineGrained runs only) ----
  int total_morsels = 0;      // sum of per-partition morsel counts
  int steals = 0;             // cross-node steal operations
  int stolen_morsels = 0;     // morsels executed away from their assignee
  int checkpoints = 0;        // merge-ready chunks published
  double checkpoint_bytes = 0;
  int recovered_morsels = 0;  // executed-but-lost morsels re-executed
  int joins = 0;              // nodes that joined mid-run
  int leaves = 0;             // nodes that left gracefully mid-run
  std::vector<StealRecord> steal_log;

  // ---- telemetry (populated only while the trace sink is enabled) ----
  // Id of the distributed trace this run exported: the modeled span tree
  // (root -> partition -> attempt chain) and the real-clock partial
  // executions all carry it. 0 on an untraced run.
  uint64_t trace_id = 0;

  // Cluster-level rollups of per-node scalars (busy_s, spill_s, attempts,
  // retries, failed), each expanded to .min/.max/.sum/.mean/.skew — the
  // straggler diagnosis view (skew = max/mean; 1.0 means balanced). Always
  // populated; derived purely from modeled quantities, so deterministic.
  std::map<std::string, double> node_rollups;
};

// Simulated WIMPI cluster: lineitem is hash-partitioned on l_orderkey
// across nodes, all other tables are fully replicated (physically shared in
// host memory). Partial plans execute for real per node; the hardware model
// converts each node's counters into simulated time, and the driver adds
// the paper's network, merge, and memory-pressure effects.
//
// With a non-empty ClusterOptions::faults plan, Run() also simulates the
// paper's failure modes: each attempt gets a modeled deadline, failures
// are retried with capped exponential backoff, and partitions whose node
// died (or kept timing out) are reassigned to the surviving node with the
// least accumulated work — any survivor can recompute any partition,
// because lineitem partitions are deterministic hash ranges and every
// other table is replicated. Results stay bit-identical to the fault-free
// answer; only the modeled time degrades. Run() errors (kUnavailable)
// only when no live node remains.
class WimpiCluster {
 public:
  WimpiCluster(const engine::Database& db, const ClusterOptions& opts);

  const ClusterOptions& options() const { return opts_; }
  int num_nodes() const { return opts_.num_nodes; }
  const engine::Database& node_db(int i) const { return node_dbs_[i]; }

  // Runs one of the eight distributed queries (Q13 uses a single node).
  // Returns InvalidArgument for queries outside the distributed subset and
  // Unavailable when the fault plan kills every node.
  Result<DistributedRun> Run(int q, const hw::CostModel& model) const;

  // Simulated seconds to ship `bytes` from `n_senders` nodes to the
  // coordinator (receive-side 220 Mbps bottleneck + per-node latency).
  double NetworkSeconds(double bytes, int n_senders) const;

  // Logical per-node memory of base tables at the model scale factor
  // (replicated tables + one lineitem partition), as WIMPI provisioning
  // would see it.
  double NodeLogicalBytes(double model_sf) const;

 private:
  ClusterOptions opts_;
  std::vector<engine::Database> node_dbs_;
};

}  // namespace wimpi::cluster

#endif  // WIMPI_CLUSTER_WIMPI_CLUSTER_H_
