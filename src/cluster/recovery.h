#ifndef WIMPI_CLUSTER_RECOVERY_H_
#define WIMPI_CLUSTER_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "cluster/fault.h"
#include "common/status.h"
#include "parallel/steal.h"

namespace wimpi::cluster {

// Fine-grained recovery (DESIGN.md §14): the modeled scheduler that
// replaces whole-partition retry with morsel-range execution, checkpointed
// partials, cross-node stealing, and elastic membership.
//
// Like the fault model it extends (§9), this is pure data-in/data-out
// simulation on modeled node clocks: the partition's real partial executes
// exactly once regardless of schedule, and the scheduler only decides
// *which worker's clock* pays for each morsel. That is the determinism
// argument in one line — the data, the partial plans, and the merge order
// never depend on the steal schedule, so any fault x steal x resize
// interleaving is bit-identical to the clean run by construction, and the
// chaos harness (bench_chaos) enforces it with checksums anyway.

enum class RecoveryMode {
  kRetry,        // whole-partition retry/reassign (§9, the default)
  kFineGrained,  // morsel ranges + checkpoints + stealing (§14)
};

struct RecoveryOptions {
  RecoveryMode mode = RecoveryMode::kRetry;
  // Morsel granularity: one modeled morsel covers `morsel_rows` rows of
  // the partition's driving table at the model SF (the engine's intra-node
  // 64K-row convention), capped so SF-100-class runs stay cheap to model
  // (kMaxMorselsPerPartition in wimpi_cluster.cc).
  int64_t morsel_rows = 64 * 1024;
  // Checkpoint boundary rule: a node publishes a merge-ready partial
  // covering every `checkpoint_interval` completed morsels (and at range
  // end). Publishing costs modeled time — one round trip plus the chunk's
  // share of the partial's bytes over the node link — so smaller intervals
  // buy cheaper recovery with higher clean-run overhead.
  int checkpoint_interval = 4;
  // Cross-node stealing: an idle worker takes the un-started half of the
  // most-loaded worker's remaining range (fixed victim order, half-split;
  // see parallel/steal.h). Off = checkpoint-only recovery.
  bool steal = true;
};

// One contiguous run of morsels by one worker. `prev_node` records where
// the range came from (-1 = initial assignment): with stolen = true it was
// taken from a live victim, otherwise it was reassigned from a dead or
// departed node. outcome kUnavailable marks work that was executed but
// lost (crash/transient before the checkpoint); its morsels re-appear in a
// later segment.
struct MorselSegment {
  int partition = 0;
  int node = 0;
  int begin = 0;
  int end = 0;  // exclusive morsel index
  double start_seconds = 0;
  double end_seconds = 0;
  int prev_node = -1;
  bool stolen = false;
  StatusCode outcome = StatusCode::kOk;
};

struct StealRecord {
  int partition = 0;
  int victim = 0;
  int thief = 0;
  int begin = 0;
  int end = 0;
  double at_seconds = 0;
};

struct CheckpointRecord {
  int partition = 0;
  int node = 0;
  int morsels = 0;
  double bytes = 0;
  double at_seconds = 0;
};

struct FineInputs {
  int pool_nodes = 0;                 // initial membership
  std::vector<double> work_s;         // per partition, spill included
  std::vector<double> spill_s;        // per partition
  std::vector<int> morsels;           // per partition (>= 1)
  std::vector<double> partial_bytes;  // scaled merge-ready partial size
  const FaultPlan* faults = nullptr;  // may be nullptr (clean)
  const ResizePlan* resize = nullptr; // may be nullptr (static membership)
  RecoveryOptions opts;
  double per_node_latency_s = 0.002;
  double net_mbps = 220.0;
};

struct FineSchedule {
  // False iff every worker died or left with work outstanding.
  bool completed = false;
  double makespan_s = 0;  // max worker clock
  std::vector<double> node_clock;  // indexed by worker id (pool + joins)
  std::vector<double> node_spill;
  std::vector<char> alive;
  std::vector<MorselSegment> segments;  // in completion order
  std::vector<StealRecord> steals;
  std::vector<CheckpointRecord> checkpoints;
  int total_morsels = 0;
  int stolen_morsels = 0;
  int recovered_morsels = 0;  // re-executed after un-checkpointed loss
  int nodes_failed = 0;
  int joins = 0;
  int leaves = 0;
  double checkpoint_bytes = 0;
};

// Runs the event-driven modeled schedule. Deterministic: fixed actor
// order (smallest clock, lowest worker id on ties), fixed victim order,
// fixed fault trigger points — same inputs, same schedule, byte for byte.
FineSchedule SimulateFineGrained(const FineInputs& in);

}  // namespace wimpi::cluster

#endif  // WIMPI_CLUSTER_RECOVERY_H_
