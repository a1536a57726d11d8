#ifndef WIMPI_PARALLEL_TASK_SCHEDULER_H_
#define WIMPI_PARALLEL_TASK_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "parallel/thread_pool.h"

namespace wimpi::parallel {

// Rows per morsel. 64K rows keeps a morsel's working set (a few hundred KB
// for the widest operators) inside the LLC of every profile in Table I
// while leaving enough morsels per scan for dynamic load balancing — the
// HyPer/DuckDB sweet spot.
inline constexpr int64_t kDefaultMorselRows = 64 * 1024;

// One contiguous slice of a scan. `index` is the position of the morsel in
// the deterministic split of [0, total): operators write per-morsel partial
// results into slot `index` and merge slots in index order, so results and
// counters do not depend on which worker ran which morsel.
struct Morsel {
  int index = 0;
  int64_t begin = 0;
  int64_t end = 0;

  int64_t rows() const { return end - begin; }
};

// Deterministic split of [0, total) into morsels of `morsel_rows` (last one
// ragged). Independent of thread count.
std::vector<Morsel> SplitMorsels(int64_t total, int64_t morsel_rows);

// Owner of the process-wide worker pool. Every morsel the engine runs is
// dispatched onto it by a FairPipelineScheduler (parallel/fair_scheduler.h):
// PipelineScheduler::Default() for single queries, the query service's
// scheduler for concurrent ones.
class TaskScheduler {
 public:
  // `num_threads` <= 0 means hardware concurrency.
  explicit TaskScheduler(int num_threads = 0) : pool_(num_threads) {}

  // Process-wide scheduler backed by hardware_concurrency workers. Created
  // on first use; engine knobs (exec::ExecOptions.num_threads) bound how
  // many of its workers any one operator employs.
  static TaskScheduler& Global();

  ThreadPool& pool() { return pool_; }

 private:
  ThreadPool pool_;
};

}  // namespace wimpi::parallel

#endif  // WIMPI_PARALLEL_TASK_SCHEDULER_H_
