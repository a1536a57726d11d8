#ifndef WIMPI_PARALLEL_FAIR_SCHEDULER_H_
#define WIMPI_PARALLEL_FAIR_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>

#include "parallel/cancellation.h"
#include "parallel/pipeline.h"
#include "parallel/thread_pool.h"

namespace wimpi::obs {
class Counter;
}  // namespace wimpi::obs

namespace wimpi::parallel {

// Lifetime totals of one closed lane, reported by CloseLane: pipelines
// run through the parallel path, morsel tasks executed, rows those tasks
// covered, and CPU time the *pool workers* (drain slots) spent on them —
// driver-run morsels are covered by the driver thread's own CPU clock,
// so worker_cpu_us + the driver's thread time never double-counts.
struct LaneUsage {
  int64_t pipelines = 0;
  int64_t tasks = 0;
  int64_t rows = 0;
  int64_t worker_cpu_us = 0;
};

// Stride-scheduling quantum: a lane with priority p advances its pass by
// kStrideBase / p per morsel it runs, and the scheduler always dispatches
// from the lane with the smallest pass — so over any window the morsel
// throughput of concurrent lanes is proportional to their priorities.
inline constexpr double kStrideBase = 1 << 20;

// The engine's one morsel dispatcher: schedules pipelines from one or many
// concurrent queries over a shared ThreadPool with stride-scheduling
// fairness (morsel-driven parallelism, Leis et al. SIGMOD 2014 — the same
// dispatcher serves intra- and inter-query parallelism).
//
// Each active query opens a *lane* (its scheduling account). The query's
// driver thread runs the plan; every parallel phase arrives here as a
// PipelineSpec via LaneScheduler (installed in the driver's ExecOptions,
// or PipelineScheduler::Default()'s one permanent lane), is split into
// deterministic morsel tasks, and drains with:
//   * the driver claiming tasks of its own pipeline (the caller
//     participates), and
//   * up to max_threads-1 pool workers per pipeline pulling tasks through
//     *drain slots*: pool tasks that repeatedly ask "which lane has the
//     smallest pass and a runnable task?", run one morsel, and loop. A
//     slot with nothing runnable exits; slots are (re)submitted when new
//     pipelines arrive. Idle ⇒ zero queued pool tasks ⇒ pool workers
//     block on their condition variable — nothing spins.
//
// A pipeline started from a pool worker runs inline on that worker, so a
// task that fans out again never waits for a slot it occupies itself.
//
// Dispatch-time gates: a fired lane or pipeline (spec.cancel) token skips
// the pipeline's remaining tasks, and RunPipeline then throws Cancelled;
// a lane deadline fires the lane token at the first pipeline start,
// dispatch or driver wait past it (the timeout needs no timer thread).
// Determinism: which *worker* runs a morsel varies, but morsel
// boundaries and merge order never do, so answers are bit-identical to
// isolated execution.
//
// Metrics (always on): service.pipelines, service.tasks counters in
// obs::MetricsRegistry::Global().
class FairPipelineScheduler {
 public:
  struct Options {
    // Upper bound on concurrently running drain slots (pool tasks); <= 0
    // means the pool size.
    int max_slots = 0;
  };

  explicit FairPipelineScheduler(ThreadPool* pool);
  FairPipelineScheduler(ThreadPool* pool, Options opts);
  // Blocks until every outstanding drain slot has exited. All lanes must
  // be closed first.
  ~FairPipelineScheduler();

  FairPipelineScheduler(const FairPipelineScheduler&) = delete;
  FairPipelineScheduler& operator=(const FairPipelineScheduler&) = delete;

  // Opens a lane. `priority` >= 1 scales the lane's share of morsel
  // throughput. `cancel` (required, caller-owned, must outlive the lane)
  // gates every dispatch. `deadline_us` > 0 (obs::NowMicros clock) makes
  // the scheduler fire `cancel` at the first dispatch past the deadline.
  // Returns the lane id.
  int OpenLane(double priority, CancellationToken* cancel,
               int64_t deadline_us = 0);

  // Closes a lane; no pipeline may be active on it. `usage` (may be null)
  // receives the lane's lifetime totals.
  void CloseLane(int lane_id, LaneUsage* usage = nullptr);

  // True once the lane's deadline fired its cancellation token (reported
  // so the driver can distinguish timeout from external cancellation).
  bool LaneDeadlineFired(int lane_id) const;

  // Runs one pipeline on `lane_id`'s account; blocks until it drains.
  // Called by LaneScheduler from the lane's driver thread (one pipeline
  // per driver at a time; concurrent calls on one lane from cooperating
  // threads are allowed and share the lane's fairness account). Every
  // path, the sequential one included, records one flight span for the
  // pipeline and one per morsel, tagged `flight_id` (0 = untagged), and
  // throws Cancelled if a fired token made it skip a morsel.
  void RunPipeline(int lane_id, const PipelineSpec& spec,
                   uint64_t flight_id = 0);

  // Pass values of all open lanes (test introspection).
  std::map<int, double> LanePassesForTest() const;

 private:
  // Default() builds the process-wide instance whose one lane is id 0.
  friend class PipelineScheduler;

  struct ActivePipeline;
  struct Lane;

  // Picks the dispatchable (lane, pipeline) with the smallest pass.
  // Handles deadline/cancellation bookkeeping for every lane it inspects.
  // Caller must hold mu_. Returns false when nothing is runnable.
  bool PickTask(Lane** lane_out, ActivePipeline** pipe_out);
  // Claims the next morsel of `p` for `lane` and runs it outside the
  // lock; `lock` is held on entry and on return. `remote` marks drain-slot
  // (pool worker) execution, which additionally accounts thread CPU time
  // to the lane.
  void RunOneTask(std::unique_lock<std::mutex>& lock, Lane* lane,
                  ActivePipeline* p, bool remote);
  void DrainSlot();
  void EnsureSlots(int wanted);  // caller must hold mu_

  ThreadPool* pool_;
  Options opts_;

  mutable std::mutex mu_;
  std::map<int, Lane> lanes_;
  // 0 is the single-query default lane, so every other instance starts
  // at 1.
  int next_lane_id_ = 1;
  int slots_running_ = 0;
  std::condition_variable slots_idle_cv_;  // dtor waits for slots to exit

  // Resolved once; registry references are stable for process lifetime.
  obs::Counter* pipelines_counter_ = nullptr;
  obs::Counter* tasks_counter_ = nullptr;
};

// PipelineScheduler face of one lane: what a query driver installs in its
// ExecOptions. It carries the query's flight id, so tagging a pipeline's
// records never takes the scheduler mutex. Copyable value; the
// FairPipelineScheduler and the lane must outlive it.
class LaneScheduler : public PipelineScheduler {
 public:
  LaneScheduler() = default;
  LaneScheduler(FairPipelineScheduler* scheduler, int lane_id,
                uint64_t flight_id = 0)
      : scheduler_(scheduler), lane_id_(lane_id), flight_id_(flight_id) {}

  void RunPipeline(const PipelineSpec& spec) override {
    scheduler_->RunPipeline(lane_id_, spec, flight_id_);
  }

 private:
  FairPipelineScheduler* scheduler_ = nullptr;
  int lane_id_ = 0;
  uint64_t flight_id_ = 0;
};

}  // namespace wimpi::parallel

#endif  // WIMPI_PARALLEL_FAIR_SCHEDULER_H_
