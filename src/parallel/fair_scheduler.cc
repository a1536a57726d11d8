#include "parallel/fair_scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/clock.h"
#include "obs/flight/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace wimpi::parallel {

// One pipeline currently draining. Lives on the driving thread's stack for
// the duration of RunPipeline (which cannot return before in_flight == 0
// and next == morsels.size(), so slot references never dangle).
struct FairPipelineScheduler::ActivePipeline {
  std::vector<Morsel> morsels;
  const std::function<void(const Morsel&)>* body = nullptr;
  const CancellationToken* cancel = nullptr;  // spec.cancel; may be null
  const char* label = "plan";
  uint64_t flight_id = 0;  // query id for flight-recorder events
  int max_threads = 1;
  size_t next = 0;          // next unclaimed morsel index
  size_t ran = 0;           // morsels finished, successfully or not
  int in_flight = 0;        // running anywhere (driver or slots)
  int remote_in_flight = 0; // running on drain slots only
  std::exception_ptr error;
  std::condition_variable done_cv;  // driver waits here (on mu_)

  bool Complete() const { return next >= morsels.size() && in_flight == 0; }
  // The pipeline's unclaimed morsels are to be skipped: its own token
  // fired or one of its morsels failed.
  bool Aborted() const {
    return error != nullptr || (cancel != nullptr && cancel->cancelled());
  }
};

struct FairPipelineScheduler::Lane {
  double stride = kStrideBase;
  double pass = 0;
  CancellationToken* cancel = nullptr;
  int64_t deadline_us = 0;
  bool deadline_fired = false;
  // Fires `cancel` once the deadline has passed, so a timed-out query is
  // cancelled by whichever dispatch or pipeline start looks at it next.
  // Caller must hold mu_. Returns whether the lane is cancelled.
  bool Fired() {
    if (deadline_us > 0 && !deadline_fired && obs::NowMicros() >= deadline_us) {
      deadline_fired = true;
      cancel->Cancel();
    }
    return cancel->cancelled();
  }
  std::list<ActivePipeline*> pipelines;
  int64_t pipelines_run = 0;
  int64_t tasks_run = 0;
  int64_t rows_run = 0;
  int64_t worker_cpu_us = 0;  // drain-slot CPU only (see LaneUsage)
};

namespace {

// Runs one morsel and records its flight span whatever the outcome;
// returns the TaskError it raised, if any.
std::exception_ptr RunRecordedMorsel(
    const std::function<void(const Morsel&)>& body, const Morsel& m,
    const char* label, uint64_t flight_id) {
  const int64_t start_us = obs::NowMicros();
  std::exception_ptr error;
  try {
    RunPipelineMorsel(body, m, label);
  } catch (...) {
    error = std::current_exception();
  }
  obs::flight::FlightRecorder::RecordSpan(
      obs::flight::EventKind::kMorselBatch, flight_id, start_us, m.index,
      static_cast<uint32_t>(m.rows()));
  return error;
}

// One span record per pipeline, on every path: a = morsels, payload =
// rows (saturated at 32 bits).
void RecordPipeline(uint64_t flight_id, int64_t start_us, int morsels,
                    int64_t rows) {
  obs::flight::FlightRecorder::RecordSpan(
      obs::flight::EventKind::kPipeline, flight_id, start_us, morsels,
      static_cast<uint32_t>(std::min<int64_t>(rows, UINT32_MAX)));
}

}  // namespace

FairPipelineScheduler::FairPipelineScheduler(ThreadPool* pool)
    : FairPipelineScheduler(pool, Options()) {}

FairPipelineScheduler::FairPipelineScheduler(ThreadPool* pool, Options opts)
    : pool_(pool), opts_(opts) {
  WIMPI_CHECK(pool_ != nullptr);
  if (opts_.max_slots <= 0) opts_.max_slots = pool_->size();
  auto& reg = obs::MetricsRegistry::Global();
  pipelines_counter_ = &reg.counter("service.pipelines");
  tasks_counter_ = &reg.counter("service.tasks");
}

FairPipelineScheduler::~FairPipelineScheduler() {
  std::unique_lock<std::mutex> lock(mu_);
  WIMPI_CHECK(lanes_.empty()) << "lanes still open at scheduler destruction";
  slots_idle_cv_.wait(lock, [this] { return slots_running_ == 0; });
}

int FairPipelineScheduler::OpenLane(double priority, CancellationToken* cancel,
                                    int64_t deadline_us) {
  WIMPI_CHECK(cancel != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  const int id = next_lane_id_++;
  Lane& lane = lanes_[id];
  lane.stride = kStrideBase / std::max(priority, 1e-3);
  lane.cancel = cancel;
  lane.deadline_us = deadline_us;
  // Join at the smallest pass currently in play: the new lane competes on
  // equal footing from now on instead of monopolizing the pool to "catch
  // up" on time it was not even submitted for.
  double min_pass = 0;
  bool first = true;
  for (const auto& [_, l] : lanes_) {
    if (&l == &lane) continue;
    if (first || l.pass < min_pass) min_pass = l.pass;
    first = false;
  }
  lane.pass = first ? 0 : min_pass;
  return id;
}

void FairPipelineScheduler::CloseLane(int lane_id, LaneUsage* usage) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = lanes_.find(lane_id);
  WIMPI_CHECK(it != lanes_.end()) << "closing unknown lane " << lane_id;
  WIMPI_CHECK(it->second.pipelines.empty())
      << "closing lane " << lane_id << " with an active pipeline";
  if (usage != nullptr) {
    usage->pipelines = it->second.pipelines_run;
    usage->tasks = it->second.tasks_run;
    usage->rows = it->second.rows_run;
    usage->worker_cpu_us = it->second.worker_cpu_us;
  }
  lanes_.erase(it);
}

bool FairPipelineScheduler::LaneDeadlineFired(int lane_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = lanes_.find(lane_id);
  WIMPI_CHECK(it != lanes_.end());
  return it->second.deadline_fired;
}

std::map<int, double> FairPipelineScheduler::LanePassesForTest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, double> passes;
  for (const auto& [id, lane] : lanes_) passes[id] = lane.pass;
  return passes;
}

bool FairPipelineScheduler::PickTask(Lane** lane_out,
                                     ActivePipeline** pipe_out) {
  Lane* best_lane = nullptr;
  ActivePipeline* best_pipe = nullptr;
  for (auto& [id, lane] : lanes_) {
    const bool cancelled = lane.Fired();
    for (ActivePipeline* p : lane.pipelines) {
      if (cancelled || p->Aborted()) {
        // Skip the rest; anyone waiting learns via the notify below.
        if (p->next < p->morsels.size()) {
          p->next = p->morsels.size();
          if (p->in_flight == 0) p->done_cv.notify_all();
        }
        continue;
      }
      if (p->next >= p->morsels.size()) continue;
      if (p->remote_in_flight >= p->max_threads - 1) continue;
      if (best_lane == nullptr || lane.pass < best_lane->pass) {
        best_lane = &lane;
        best_pipe = p;
      }
      break;  // one candidate pipeline per lane is enough
    }
  }
  if (best_lane == nullptr) return false;
  *lane_out = best_lane;
  *pipe_out = best_pipe;
  return true;
}

void FairPipelineScheduler::RunOneTask(std::unique_lock<std::mutex>& lock,
                                       Lane* lane, ActivePipeline* p,
                                       bool remote) {
  const Morsel m = p->morsels[p->next++];
  ++p->in_flight;
  lane->pass += lane->stride;
  ++lane->tasks_run;
  lane->rows_run += m.rows();
  const std::function<void(const Morsel&)>* body = p->body;
  const char* label = p->label;
  const uint64_t flight_id = p->flight_id;
  lock.unlock();

  // Per-morsel CPU accounting applies only to drain-slot (pool worker)
  // execution: the driver's own morsels fall inside its whole-query CPU
  // window, so measuring them here would double-count.
  const int64_t cpu0 = remote ? obs::ThreadCpuMicros() : 0;
  std::exception_ptr error = RunRecordedMorsel(*body, m, label, flight_id);
  tasks_counter_->Add(1);
  const int64_t cpu_us = remote ? obs::ThreadCpuMicros() - cpu0 : 0;

  lock.lock();
  if (remote) lane->worker_cpu_us += cpu_us;
  --p->in_flight;
  ++p->ran;
  if (error != nullptr) {
    if (p->error == nullptr) p->error = error;
    p->next = p->morsels.size();  // abort: skip unclaimed morsels
  }
  if (p->Complete()) p->done_cv.notify_all();
}

void FairPipelineScheduler::EnsureSlots(int wanted) {
  wanted = std::min(wanted, opts_.max_slots);
  while (slots_running_ < wanted) {
    ++slots_running_;
    pool_->Submit([this] { DrainSlot(); });
  }
}

void FairPipelineScheduler::DrainSlot() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Lane* lane = nullptr;
    ActivePipeline* p = nullptr;
    if (!PickTask(&lane, &p)) {
      // Nothing runnable: exit instead of polling. New pipelines resubmit
      // slots under the same mutex, so this cannot race work into limbo.
      --slots_running_;
      if (slots_running_ == 0) slots_idle_cv_.notify_all();
      return;
    }
    ++p->remote_in_flight;
    RunOneTask(lock, lane, p, /*remote=*/true);
    --p->remote_in_flight;
  }
}

void FairPipelineScheduler::RunPipeline(int lane_id, const PipelineSpec& spec,
                                        uint64_t flight_id) {
  std::vector<Morsel> morsels =
      SplitMorsels(spec.total_rows, spec.morsel_rows);
  if (morsels.empty()) return;
  const char* label = obs::CurrentOpLabel();
  const int num_morsels = static_cast<int>(morsels.size());
  const int64_t pipeline_start_us = obs::NowMicros();
  // Sequential fast path: a single-threaded phase (or one already on a
  // pool worker, which must not wait for a slot it occupies) runs on the
  // caller without joining the lane's dispatch, but honours the same
  // tokens and records the same flight spans.
  if (spec.max_threads <= 1 || num_morsels == 1 ||
      ThreadPool::OnWorkerThread()) {
    const CancellationToken* lane_cancel;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto lane_it = lanes_.find(lane_id);
      WIMPI_CHECK(lane_it != lanes_.end()) << "pipeline on unknown lane";
      lane_it->second.Fired();  // fires a passed deadline
      lane_cancel = lane_it->second.cancel;
    }
    std::exception_ptr error;
    bool skipped = false;
    for (const Morsel& m : morsels) {
      if (lane_cancel->cancelled() ||
          (spec.cancel != nullptr && spec.cancel->cancelled())) {
        skipped = true;
        break;
      }
      error = RunRecordedMorsel(*spec.body, m, label, flight_id);
      if (error != nullptr) break;
    }
    RecordPipeline(flight_id, pipeline_start_us, num_morsels,
                   spec.total_rows);
    if (error != nullptr) std::rethrow_exception(error);
    if (skipped) throw Cancelled();
    return;
  }

  obs::NoteParallelPhase(spec.max_threads, num_morsels);
  pipelines_counter_->Add(1);

  ActivePipeline p;
  p.morsels = std::move(morsels);
  p.body = spec.body;
  p.cancel = spec.cancel;
  p.label = label;
  p.flight_id = flight_id;
  p.max_threads = spec.max_threads;

  std::unique_lock<std::mutex> lock(mu_);
  auto lane_it = lanes_.find(lane_id);
  WIMPI_CHECK(lane_it != lanes_.end()) << "pipeline on unknown lane";
  Lane& lane = lane_it->second;
  ++lane.pipelines_run;
  lane.pipelines.push_back(&p);
  EnsureSlots(slots_running_ + std::min(spec.max_threads - 1, num_morsels));

  // Driver drain loop: claim own tasks (the caller participates), then
  // wait for remote in-flight ones. Every wait is on a condition variable;
  // the deadline wait doubles as the lane's timeout when no dispatch
  // happens to observe it first.
  for (;;) {
    if (lane.Fired() || p.Aborted()) {
      p.next = p.morsels.size();  // skip unclaimed; in-flight ones finish
    }
    if (p.next < p.morsels.size()) {
      RunOneTask(lock, &lane, &p, /*remote=*/false);
      continue;
    }
    if (p.in_flight == 0) break;
    if (lane.deadline_us > 0 && !lane.deadline_fired) {
      p.done_cv.wait_until(
          lock, std::chrono::steady_clock::time_point(
                    std::chrono::microseconds(lane.deadline_us)));
    } else {
      p.done_cv.wait(lock);
    }
  }
  lane.pipelines.remove(&p);
  lock.unlock();
  RecordPipeline(flight_id, pipeline_start_us, num_morsels, spec.total_rows);
  if (p.error != nullptr) std::rethrow_exception(p.error);
  if (p.ran < p.morsels.size()) throw Cancelled();
}

}  // namespace wimpi::parallel
