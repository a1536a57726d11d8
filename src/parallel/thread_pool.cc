#include "parallel/thread_pool.h"

#include <algorithm>
#include <string>

#include "obs/clock.h"
#include "obs/flight/flight_recorder.h"
#include "obs/metrics.h"

namespace wimpi::parallel {

namespace {

thread_local bool t_on_worker_thread = false;

// Per-worker metric handles, resolved on first use so the registry mutex
// is taken once per worker, not per task. Only touched when the pool
// metrics hooks are enabled.
struct WorkerMetrics {
  obs::Counter* busy_us = nullptr;
  obs::Counter* idle_us = nullptr;
  obs::Counter* tasks = nullptr;
  obs::Histogram* queue_wait_us = nullptr;
  obs::Histogram* task_run_us = nullptr;

  void Ensure(int worker_index) {
    if (busy_us != nullptr) return;
    auto& reg = obs::MetricsRegistry::Global();
    const std::string w = "pool.worker" + std::to_string(worker_index);
    busy_us = &reg.counter(w + ".busy_us");
    idle_us = &reg.counter(w + ".idle_us");
    tasks = &reg.counter("pool.tasks");
    queue_wait_us = &reg.histogram("pool.task.queue_wait_us");
    task_run_us = &reg.histogram("pool.task.run_us");
  }
};

}  // namespace

bool ThreadPool::OnWorkerThread() { return t_on_worker_thread; }

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::PublishQueueDepth() {
  if (queue_depth_ == nullptr) {
    queue_depth_ = &obs::MetricsRegistry::Global().gauge("pool.queue_depth");
  }
  queue_depth_->Set(static_cast<double>(queue_.size()));
}

void ThreadPool::WorkerLoop(int worker_index) {
  t_on_worker_thread = true;
  WorkerMetrics metrics;
  for (;;) {
    QueuedTask task;
    // One relaxed load decides whether this iteration feeds the pool
    // metrics; with the hooks off the clock is read only for the flight
    // record.
    const bool instrumented = obs::PoolMetricsEnabled();
    const int64_t idle_start = instrumented ? obs::NowMicros() : 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      PublishQueueDepth();
    }
    const int64_t start = obs::NowMicros();
    if (instrumented) {
      metrics.Ensure(worker_index);
      metrics.idle_us->Add(start - idle_start);
      if (task.enqueue_us > 0) {
        metrics.queue_wait_us->Record(
            static_cast<double>(start - task.enqueue_us));
      }
    }
    task.fn();
    if (instrumented) {
      const int64_t end = obs::NowMicros();
      metrics.busy_us->Add(end - start);
      metrics.task_run_us->Record(static_cast<double>(end - start));
      metrics.tasks->Add(1);
    }
    // Flight recorder is always on (one relaxed load + a few relaxed
    // stores); pool tasks are coarse units (fair-scheduler drain slots),
    // so this is nowhere near the per-morsel path.
    obs::flight::FlightRecorder::RecordSpan(obs::flight::EventKind::kPoolTask,
                                            0, start, worker_index);
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> result = packaged->get_future();
  QueuedTask task;
  task.fn = [packaged] { (*packaged)(); };
  const bool instrumented = obs::PoolMetricsEnabled();
  if (instrumented) task.enqueue_us = obs::NowMicros();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    PublishQueueDepth();
  }
  cv_.notify_one();
  return result;
}

}  // namespace wimpi::parallel
