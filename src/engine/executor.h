#ifndef WIMPI_ENGINE_EXECUTOR_H_
#define WIMPI_ENGINE_EXECUTOR_H_

#include <functional>
#include <string>
#include <utility>

#include "exec/counters.h"
#include "exec/exec_options.h"
#include "exec/relation.h"
#include "obs/profiler.h"

namespace wimpi::engine {

// Engine entry point for running query plans under a chosen degree of
// parallelism. The executor installs its ExecOptions for the duration of
// each plan (RAII), so operator-library calls inside the plan pick up the
// morsel-parallel paths; with the default options (one thread) every plan
// runs exactly as the single-threaded engine always has.
//
// Since the pipeline/executor split, the executor is a thin wrapper over
// the pipeline path: it only sets options, and every operator phase a plan
// runs goes through exec::RunMorsels/RunChunks as a parallel::PipelineSpec
// dispatched to the ambient PipelineScheduler (by default the single
// permanent lane of a process-wide fair scheduler). The same plans run
// unchanged under the concurrent query service (src/service), which gives
// each query its own lane so many queries' pipelines interleave — answers
// stay bit-identical at a given (num_threads, morsel_rows), enforced by the
// 22-query equivalence tests in both modes.
//
// Stats stay race-free without atomics: worker threads never touch the
// QueryStats — each operator's parallel phase collects per-morsel partial
// counters and the calling thread folds them into one OpStats after the
// morsels join, so `stats` sees the same single-stream of Add() calls as
// sequential execution.
class Executor {
 public:
  explicit Executor(exec::ExecOptions opts = {}) : opts_(opts) {}

  const exec::ExecOptions& options() const { return opts_; }
  void set_num_threads(int n) { opts_.num_threads = n; }
  void set_morsel_rows(int64_t rows) { opts_.morsel_rows = rows; }
  // Installs a cardinality estimator (typically a stats::StatsRegistry) so
  // operators record predicted output rows in OpStats.est_rows next to the
  // actuals. Observational only: answers are bit-identical either way. The
  // estimator must outlive every plan run under these options.
  void set_cardinality_estimator(const exec::CardinalityEstimator* est) {
    opts_.cardinality_estimator = est;
  }

  // Runs `plan` (any callable taking QueryStats* — typically returning a
  // Relation) with this executor's options installed, restoring the
  // previous ambient options afterwards.
  template <typename Plan>
  auto Run(const Plan& plan, exec::QueryStats* stats = nullptr) const {
    exec::ScopedExecOptions scope(opts_);
    return plan(stats);
  }

  // Like Run, but with profiling installed for the duration of the plan:
  // `profile` receives the EXPLAIN ANALYZE-style operator tree (render it
  // as a trace with QueryProfile::ToTraceEvents), and per `popts` pool
  // metrics land in obs::MetricsRegistry::Global(). The plan's results are
  // identical to an unprofiled Run — instrumentation only reads clocks, it
  // never alters execution.
  template <typename Plan>
  auto RunProfiled(const Plan& plan, const obs::ProfileOptions& popts,
                   obs::QueryProfile* profile,
                   exec::QueryStats* stats = nullptr,
                   std::string label = "query") const {
    exec::ScopedExecOptions scope(opts_);
    obs::ScopedProfiling prof(popts, profile, std::move(label));
    return plan(stats);
  }

 private:
  exec::ExecOptions opts_;
};

}  // namespace wimpi::engine

#endif  // WIMPI_ENGINE_EXECUTOR_H_
