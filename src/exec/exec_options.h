#ifndef WIMPI_EXEC_EXEC_OPTIONS_H_
#define WIMPI_EXEC_EXEC_OPTIONS_H_

#include <cstdint>

namespace wimpi::parallel {
class CancellationToken;
class PipelineScheduler;
}  // namespace wimpi::parallel

namespace wimpi::exec {

class CardinalityEstimator;

// Engine-wide execution knobs. The default (one thread) runs every
// operator phase as one morsel on the calling thread: no pool worker is
// ever involved unless a caller opts in.
struct ExecOptions {
  // Maximum threads (including the calling thread) any one operator may
  // use. <= 0 means hardware concurrency.
  int num_threads = 1;
  // Rows per scan morsel. The split of an input into morsels depends only
  // on this value — never on num_threads — so per-morsel partial results
  // merged in morsel order give the same answer at every thread count.
  int64_t morsel_rows = 64 * 1024;
  // Cooperative cancellation for every operator phase run under these
  // options. Null (the default) means not cancellable. The pointed-to
  // token must outlive the plan. Once it fires, the next phase to start
  // (or the running one, if it still had morsels to claim) throws
  // parallel::Cancelled out of the plan.
  const parallel::CancellationToken* cancellation = nullptr;
  // Where the plan's parallel phases (pipelines) are scheduled. Null (the
  // default) means parallel::PipelineScheduler::Default(), the one
  // permanent lane of a process-wide fair scheduler over the global pool.
  // The query service installs a per-query lane of its own fair scheduler
  // here so pipelines from many concurrent queries interleave over the
  // shared pool. Morsel boundaries (and therefore answers) are
  // scheduler-independent.
  parallel::PipelineScheduler* pipeline_scheduler = nullptr;
  // Plan-quality observability (DESIGN.md §13). When non-null, operators
  // that record OpStats also ask this estimator for a predicted output
  // cardinality and store it in OpStats.est_rows next to the actuals.
  // Estimates are consulted on the driving thread only and never alter
  // execution: answers are bit-identical with or without an estimator.
  // Null (the default) keeps est_rows at -1 everywhere.
  const CardinalityEstimator* cardinality_estimator = nullptr;
};

// Ambient options consulted by the operator library on the thread that
// drives a plan. Thread-local: each query driver (a test's main thread,
// an engine::Executor caller, a service driver thread) installs its own
// options, so concurrent queries on different threads never see each
// other's knobs. Morsel bodies running on pool workers never consult the
// ambient options — operators capture everything they need on the driving
// thread before fanning out (workers would otherwise read their own
// thread's defaults).
const ExecOptions& CurrentExecOptions();
void SetExecOptions(const ExecOptions& opts);

// RAII setter used by the engine executor, tests and benches.
class ScopedExecOptions {
 public:
  explicit ScopedExecOptions(const ExecOptions& opts);
  ~ScopedExecOptions();

  ScopedExecOptions(const ScopedExecOptions&) = delete;
  ScopedExecOptions& operator=(const ScopedExecOptions&) = delete;

 private:
  ExecOptions prev_;
};

// Threads an operator over `rows` input rows should use under the current
// options: 1 (the phase is one morsel) unless parallelism is enabled, the
// input spans at least two morsels, and we are not already inside a pool
// worker (operators invoked from a parallel phase run inline instead of
// waiting on the pool they occupy).
int PlannedThreads(int64_t rows);

}  // namespace wimpi::exec

#endif  // WIMPI_EXEC_EXEC_OPTIONS_H_
