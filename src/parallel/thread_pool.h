#ifndef WIMPI_PARALLEL_THREAD_POOL_H_
#define WIMPI_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace wimpi::obs {
class Gauge;
}  // namespace wimpi::obs

namespace wimpi::parallel {

// A fixed set of worker threads draining a shared task queue (the classic
// condvar-guarded deque; the morsel-driven FairPipelineScheduler on top of
// this gets the load-balancing benefits of work stealing without
// per-thread deques, because morsels are already small and uniform).
//
// Idle workers (and an idle query service above them) consume no CPU:
// every wait in this file blocks on cv_ under mu_ — there is no polling
// loop anywhere on the idle path. The "pool.queue_depth" gauge tracks the
// current queue length on every push and pop (one relaxed store under the
// mutex already held there), so a saturated (or wedged) service is visible
// from a metrics snapshot and the timeline sampler reads a live backlog
// without arming the clock-reading pool metrics hooks.
//
// Submit() never blocks (it only enqueues), so nested use is
// deadlock-free as long as no task waits on the pool it runs on; the fair
// scheduler guarantees that by running pipelines started from a worker
// inline (OnWorkerThread()).
class ThreadPool {
 public:
  // `num_threads` <= 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues `fn`; the future carries any exception it throws.
  std::future<void> Submit(std::function<void()> fn);

  // True when the current thread is one of this process's pool workers
  // (any pool). Operators use it to refuse nested re-parallelization.
  static bool OnWorkerThread();

 private:
  // A queued task plus the instant it was enqueued (0 when the pool
  // metrics hooks were off at enqueue time, so the worker skips the
  // queue-wait sample for it).
  struct QueuedTask {
    std::function<void()> fn;
    int64_t enqueue_us = 0;
  };

  void WorkerLoop(int worker_index);
  void PublishQueueDepth();  // caller must hold mu_

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;
  bool shutting_down_ = false;
  // "pool.queue_depth" gauge, resolved on first enqueue (the registry
  // reference is stable for process lifetime). Guarded by mu_.
  obs::Gauge* queue_depth_ = nullptr;
  std::vector<std::thread> workers_;
};

}  // namespace wimpi::parallel

#endif  // WIMPI_PARALLEL_THREAD_POOL_H_
