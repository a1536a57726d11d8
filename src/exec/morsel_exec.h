#ifndef WIMPI_EXEC_MORSEL_EXEC_H_
#define WIMPI_EXEC_MORSEL_EXEC_H_

// Internal glue between the operator library and wimpi::parallel: every
// parallel operator phase becomes one parallel::PipelineSpec handed to the
// ambient pipeline scheduler (the pipeline/executor split). Operators call
// PlannedThreads() first and only come here when it returns > 1, so the
// sequential paths never touch the scheduler (and num_threads=1 stays
// bit-identical to the single-threaded engine). With no scheduler
// installed the pipeline runs on PipelineScheduler::Default() — the one
// permanent lane of a process-wide fair scheduler; the query service
// installs a per-query lane of its own fair scheduler instead, which
// interleaves this pipeline's morsels with other queries' pipelines.

#include <cstdint>
#include <functional>

#include "exec/exec_options.h"
#include "parallel/pipeline.h"

namespace wimpi::exec {

// Morsel count of an n-row input under the current options (the slot count
// for per-morsel partial results; independent of thread count).
inline int NumMorsels(int64_t rows) {
  const int64_t per = CurrentExecOptions().morsel_rows;
  return static_cast<int>((rows + per - 1) / per);
}

// Runs body over the morsels of [0, rows) split at `chunk_rows` rows, on
// up to `threads` threads (including the caller). Partial results indexed
// by morsel.index and merged in index order are deterministic at any
// thread count and under any scheduler. An explicit chunk size serves
// phases whose partial-result granularity must be "one chunk per thread"
// (e.g. thread-local aggregation tables) rather than one per morsel.
inline void RunChunks(int64_t rows, int64_t chunk_rows, int threads,
                      const std::function<void(const parallel::Morsel&)>& body) {
  const ExecOptions& opts = CurrentExecOptions();
  parallel::PipelineSpec spec;
  spec.total_rows = rows;
  spec.morsel_rows = chunk_rows;
  spec.max_threads = threads;
  spec.body = &body;
  spec.cancel = opts.cancellation;
  (opts.pipeline_scheduler != nullptr
       ? *opts.pipeline_scheduler
       : parallel::PipelineScheduler::Default())
      .RunPipeline(spec);
}

// RunChunks at the current options' morsel size.
inline void RunMorsels(int64_t rows, int threads,
                       const std::function<void(const parallel::Morsel&)>& body) {
  RunChunks(rows, CurrentExecOptions().morsel_rows, threads, body);
}

}  // namespace wimpi::exec

#endif  // WIMPI_EXEC_MORSEL_EXEC_H_
