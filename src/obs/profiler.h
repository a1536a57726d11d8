#ifndef WIMPI_OBS_PROFILER_H_
#define WIMPI_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/counters.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace wimpi::obs {

// Profiling knobs, the observability sibling of exec::ExecOptions. All off
// by default: the operator library then performs one relaxed atomic load
// per operator invocation and never reads a clock, so unprofiled runs keep
// the seed engine's behaviour (and results) bit-for-bit.
struct ProfileOptions {
  // Collect the EXPLAIN ANALYZE-style operator tree (wall time, rows,
  // morsels, threads, OpStats side by side).
  bool operator_profile = true;
  // Enable the ThreadPool metric hooks (task latency, queue wait,
  // per-worker busy/idle) in MetricsRegistry::Global().
  bool pool_metrics = false;
  // Count hardware events (cycles, instructions, LLC traffic, branch
  // misses, task time) for the query and attribute per-operator deltas, so
  // trees and reports show IPC and LLC-miss rate next to the abstract
  // counters. Degrades gracefully: when perf_event_open cannot count
  // (container, perf_event_paranoid, non-Linux, WIMPI_PERF_DISABLE=1) the
  // run is bit-identical and reports say "counters unavailable".
  bool perf_counters = false;
};

// One node of the profile tree: an operator invocation (or the query root).
// Children are operators invoked while this one was on the scope stack,
// e.g. SortRelation -> [SortPerm, Gather...]. OpStats recorded via
// QueryStats::Add land on the node that was innermost at Add time.
struct ProfileNode {
  std::string name;  // operator kind, e.g. "Filter", "HashJoin"
  int64_t start_us = 0;  // NowMicros() when the scope opened
  double wall_seconds = 0;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  int threads = 1;  // max threads of any parallel phase (1 = sequential)
  int morsels = 1;  // morsel/chunk count of the widest parallel phase
  // Abstract work counters recorded while this scope was innermost — the
  // model-side view of the same invocation, side by side with wall time.
  std::vector<exec::OpStats> op_stats;
  // Physical counters measured while this scope was open (inclusive of
  // children, like wall_seconds). Valid only when ProfileOptions
  // .perf_counters was on and at least one event could be counted.
  bool perf_valid = false;
  PerfCounts perf;
  std::vector<std::unique_ptr<ProfileNode>> children;

  double ChildSeconds() const;
  double SelfSeconds() const { return wall_seconds - ChildSeconds(); }
  double TotalComputeOps() const;
  double TotalSeqBytes() const;
  double TotalRandCount() const;
};

// Result of one profiled query execution.
struct QueryProfile {
  ProfileNode root;  // root.name = label passed to ScopedProfiling
  double wall_seconds = 0;
  // flight::CurrentThreadId() of the profiling thread: the row its
  // operator spans render on, shared with its flight records.
  int tid = 0;

  // Whole-query physical counters (root.perf mirrors them). When
  // ProfileOptions.perf_counters was requested but nothing could be
  // counted, perf_valid is false and perf_note holds the reason; trees and
  // reports then print "counters unavailable". Empty note = not requested.
  bool perf_valid = false;
  PerfCounts perf;
  std::string perf_note;

  // Sum of wall seconds over the root's direct children (the top-level
  // operator invocations). The gap to `wall_seconds` is plan glue.
  double OperatorSeconds() const { return root.ChildSeconds(); }

  // EXPLAIN ANALYZE-style text rendering of the tree.
  std::string FormatTree() const;

  // Machine-readable rendering of the same tree (wall/rows/threads/model
  // counters per node, perf totals at the top level).
  std::string ToJson() const;

  // Chrome-trace rendering of the same tree: one 'X' span per node on the
  // profiling thread's row (cat "query" for the root, "op" below it), in
  // trace `trace_id`, with span ids numbered in pre-order from 1 so every
  // parent id is the enclosing node's span. Morsels and pool tasks of the
  // same window render from the flight rings
  // (FlightRecorder::ToTraceEvents).
  std::vector<TraceEvent> ToTraceEvents(uint64_t trace_id = 1) const;
};

// Installs profiling for the current thread's query execution (RAII).
// Exactly one may be active at a time per process; the constructor records
// the owning thread, and scopes opened on other threads (operators running
// inside pool tasks) become no-ops, so worker threads never touch the
// scope stack.
class ScopedProfiling {
 public:
  ScopedProfiling(const ProfileOptions& opts, QueryProfile* out,
                  std::string label = "query");
  ~ScopedProfiling();

  ScopedProfiling(const ScopedProfiling&) = delete;
  ScopedProfiling& operator=(const ScopedProfiling&) = delete;

 private:
  QueryProfile* out_;
  ProfileOptions opts_;
  bool prev_pool_metrics_ = false;
  PerfCounters perf_;  // open only when opts_.perf_counters and available
};

// RAII operator scope. When no profiler is active (or the caller is not
// the profiling thread) construction is one relaxed load and everything
// else is a no-op.
class OpScope {
 public:
  // `name` must be a string literal (stored unowned as the pipeline label).
  OpScope(const char* name, int64_t rows_in);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  bool active() const { return node_ != nullptr; }
  void set_rows_out(int64_t rows) {
    if (node_ != nullptr) node_->rows_out = rows;
  }

 private:
  ProfileNode* node_ = nullptr;
  ProfileNode* parent_ = nullptr;
  const char* prev_label_ = nullptr;
  PerfCounts perf_start_;  // read only when counters are live
};

// True while a ScopedProfiling with operator_profile is installed (any
// thread may ask; only the owning thread may open scopes).
bool ProfilerActive();

// Called by the morsel scheduler glue on the profiling thread before
// fanning out: records the parallel shape on the innermost open scope.
void NoteParallelPhase(int threads, int morsels);

// Label of the innermost open scope ("plan" when none); readable from
// worker threads while they execute that scope's morsels, used to name the
// operator in morsel errors. Returns a string literal pointer.
const char* CurrentOpLabel();

}  // namespace wimpi::obs

#endif  // WIMPI_OBS_PROFILER_H_
