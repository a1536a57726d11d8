#ifndef WIMPI_EXEC_MORSEL_EXEC_H_
#define WIMPI_EXEC_MORSEL_EXEC_H_

// Internal glue between the operator library and wimpi::parallel: every
// operator phase becomes one parallel::PipelineSpec handed to the ambient
// pipeline scheduler (the pipeline/executor split). Operators call
// PlannedThreads() first: above one thread the phase is split into
// morsels (RunMorsels/RunChunks); at one it keeps its sequential loop,
// run once over the whole range as a single-morsel pipeline
// (RunSequential), so num_threads=1 stays bit-identical to the
// single-threaded engine and still leaves the same flight records. With
// no scheduler installed the pipeline runs on PipelineScheduler::Default()
// — the one permanent lane of a process-wide fair scheduler; the query
// service installs a per-query lane of its own fair scheduler instead,
// which interleaves this pipeline's morsels with other queries'
// pipelines.

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
// The ambient pipeline scheduler: the one installed in the current
// ExecOptions, else PipelineScheduler::Default().
inline parallel::PipelineScheduler& AmbientScheduler() {
  parallel::PipelineScheduler* installed =
      CurrentExecOptions().pipeline_scheduler;
  return installed != nullptr ? *installed
                              : parallel::PipelineScheduler::Default();
}

inline void RunChunks(int64_t rows, int64_t chunk_rows, int threads,
                      const std::function<void(const parallel::Morsel&)>& body) {
  parallel::PipelineSpec spec;
  spec.total_rows = rows;
  spec.morsel_rows = chunk_rows;
  spec.max_threads = threads;
  spec.body = &body;
  spec.cancel = CurrentExecOptions().cancellation;
  AmbientScheduler().RunPipeline(spec);
}

// Runs the sequential loop `body()` over [0, rows) on the calling thread as
// one pipeline of one morsel. The loop runs to completion whatever the
// cancellation token says (no token is passed), and a zero-row phase still
// runs it, without a pipeline.
template <typename Body>
void RunSequential(int64_t rows, const Body& body) {
  if (rows <= 0) return body();
  const std::function<void(const parallel::Morsel&)> whole =
      [&body](const parallel::Morsel&) { body(); };
  parallel::PipelineSpec spec;
  spec.total_rows = rows;
  spec.morsel_rows = rows;
  spec.body = &whole;
  AmbientScheduler().RunPipeline(spec);
}

// RunChunks at the current options' morsel size.
inline void RunMorsels(int64_t rows, int threads,
                       const std::function<void(const parallel::Morsel&)>& body) {
  RunChunks(rows, CurrentExecOptions().morsel_rows, threads, body);
}

}  // namespace wimpi::exec

#endif  // WIMPI_EXEC_MORSEL_EXEC_H_
