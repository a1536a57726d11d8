#ifndef WIMPI_EXEC_MORSEL_EXEC_H_
#define WIMPI_EXEC_MORSEL_EXEC_H_

// Internal glue between the operator library and wimpi::parallel: every
// operator phase is one loop over morsels, handed as one
// parallel::PipelineSpec to the ambient pipeline scheduler (the
// pipeline/executor split). Operators call PlannedThreads() first and pass
// the result on: above one thread the phase is split into morsels; at one
// it is a single morsel covering the whole range, so num_threads=1 runs
// the same loop over [0, rows) once and still leaves one pipeline and one
// morsel of flight records. With no scheduler installed the pipeline runs
// on PipelineScheduler::Default() — the one permanent lane of a
// process-wide fair scheduler; the query service installs a per-query
// lane of its own fair scheduler instead, which interleaves this
// pipeline's morsels with other queries' pipelines.
//
// Every phase carries the ambient cancellation token: a fired token is
// seen at the phase's start on every path, and the phase then throws
// parallel::Cancelled instead of returning with morsel slots unfilled.
// A zero-row phase runs nothing and hands no pipeline to the scheduler.

#include <cstdint>
#include <functional>

#include "exec/exec_options.h"
#include "parallel/pipeline.h"

namespace wimpi::exec {

// Rows per morsel of an n-row phase on `threads` threads: all of them at
// one thread, else the current options' morsel size (independent of the
// thread count, so per-morsel partials merge to the same answer at every
// thread count above one).
inline int64_t MorselRows(int64_t rows, int threads) {
  return threads > 1 ? CurrentExecOptions().morsel_rows : rows;
}

// Morsel count of an n-row phase on `threads` threads: the slot count for
// per-morsel partial results.
inline int NumMorsels(int64_t rows, int threads) {
  if (rows <= 0) return 0;
  const int64_t per = MorselRows(rows, threads);
  return static_cast<int>((rows + per - 1) / per);
}

// The ambient pipeline scheduler: the one installed in the current
// ExecOptions, else PipelineScheduler::Default().
inline parallel::PipelineScheduler& AmbientScheduler() {
  parallel::PipelineScheduler* installed =
      CurrentExecOptions().pipeline_scheduler;
  return installed != nullptr ? *installed
                              : parallel::PipelineScheduler::Default();
}

// Runs body over the morsels of [0, rows) split at `chunk_rows` rows (one
// morsel when `threads` <= 1), on up to `threads` threads including the
// caller. Partial results indexed by morsel.index and merged in index
// order are deterministic at any thread count and under any scheduler. An
// explicit chunk size serves phases whose partial-result granularity must
// be "one chunk per thread" (e.g. thread-local aggregation tables) rather
// than one per morsel. Throws parallel::Cancelled if the ambient token
// made the pipeline skip a morsel.
inline void RunChunks(int64_t rows, int64_t chunk_rows, int threads,
                      const std::function<void(const parallel::Morsel&)>& body) {
  if (rows <= 0) return;
  parallel::PipelineSpec spec;
  spec.total_rows = rows;
  spec.morsel_rows = threads > 1 ? chunk_rows : rows;
  spec.max_threads = threads;
  spec.body = &body;
  spec.cancel = CurrentExecOptions().cancellation;
  AmbientScheduler().RunPipeline(spec);
}

// RunChunks at MorselRows(rows, threads).
inline void RunMorsels(int64_t rows, int threads,
                       const std::function<void(const parallel::Morsel&)>& body) {
  RunChunks(rows, MorselRows(rows, threads), threads, body);
}

}  // namespace wimpi::exec

#endif  // WIMPI_EXEC_MORSEL_EXEC_H_
