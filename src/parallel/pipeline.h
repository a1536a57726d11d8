#ifndef WIMPI_PARALLEL_PIPELINE_H_
#define WIMPI_PARALLEL_PIPELINE_H_

#include <cstdint>
#include <functional>

#include "parallel/cancellation.h"
#include "parallel/task_scheduler.h"

namespace wimpi::parallel {

// One pipeline: a single parallel phase of a query, expressed as a
// deterministic morsel loop (the DuckDB pipeline/executor split applied to
// this column-at-a-time engine: every parallel operator phase — a scan
// filter, a hash build, a probe, a partial-aggregation pass — is one
// independently schedulable unit, and a query is the DAG of such units its
// plan produces; the hand-written plans yield chain-shaped DAGs, one
// pipeline after another, discovered as the plan executes).
//
// The spec only borrows its pointers: `body` and `cancel` must stay valid
// until RunPipeline returns (they are the caller's stack; RunPipeline
// blocks until the pipeline has drained, so this holds naturally).
struct PipelineSpec {
  int64_t total_rows = 0;
  int64_t morsel_rows = kDefaultMorselRows;
  // Maximum concurrent morsels, counting the driving thread.
  int max_threads = 1;
  const std::function<void(const Morsel&)>* body = nullptr;
  const CancellationToken* cancel = nullptr;
};

// Where a query's pipelines go to be executed. The operator library hands
// every parallel phase to the scheduler installed in the ambient
// exec::ExecOptions; with none installed it uses Default(). Both are lanes
// of a FairPipelineScheduler (parallel/fair_scheduler.h), the one code
// path that claims and dispatches morsels: the service opens one lane per
// query on its scheduler, Default() is the single permanent lane of a
// process-wide one.
//
// Contract every implementation must honour (it is what keeps answers
// bit-identical across schedulers): morsel boundaries come from
// SplitMorsels(total_rows, morsel_rows) only; every morsel runs at most
// once; RunPipeline returns after all claimed morsels finished; when
// `cancel` fires, unclaimed morsels are skipped and RunPipeline returns
// normally (the caller owns the token and discards the partial work); a
// body exception aborts the pipeline and is rethrown on the caller as a
// TaskError naming the operator and morsel.
class PipelineScheduler {
 public:
  virtual ~PipelineScheduler() = default;

  // Blocks until the pipeline has drained (all morsels run, or the rest
  // skipped after cancellation / a body error).
  virtual void RunPipeline(const PipelineSpec& spec) = 0;

  // Process-default scheduler (single-query behaviour): a permanently open
  // priority-1 lane (lane 0) of a process-wide
  // FairPipelineScheduler over TaskScheduler::Global().pool().
  static PipelineScheduler& Default();
};

// Runs one morsel body, converting any escaping exception into a TaskError
// that names the operator and morsel (an incoming TaskError is forwarded
// untouched — it already carries the most specific context). Used by the
// fair scheduler's parallel and inline paths alike, so failure attribution
// does not depend on which one ran the morsel.
void RunPipelineMorsel(const std::function<void(const Morsel&)>& body,
                       const Morsel& m, const char* label);

}  // namespace wimpi::parallel

#endif  // WIMPI_PARALLEL_PIPELINE_H_
