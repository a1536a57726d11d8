#include "service/query_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "exec/exec_options.h"
#include "obs/clock.h"
#include "obs/flight/flight_recorder.h"
#include "obs/flight/slow_query_log.h"
#include "obs/metrics.h"
#include "obs/timeline/sampler.h"
#include "parallel/cancellation.h"
#include "parallel/task_scheduler.h"

namespace wimpi::service {
namespace internal {

namespace flight = obs::flight;

// Priority applied when a QuerySpec leaves its own at 0.
constexpr double kDefaultPriority = 1.0;
// History included in a flight dump before the triggering query's submit
// time, so the dump shows what the node was busy with while it waited.
constexpr int64_t kDumpWindowMarginUs = 200 * 1000;

// Service-wide query ids tag flight-recorder events; process-global so
// dumps mixing several QueryService instances stay unambiguous.
std::atomic<uint64_t> g_next_query_id{1};

enum class TicketPhase { kQueued, kRunning, kDone };

// All mutable ticket state is guarded by ServiceCore::mu (one service-wide
// mutex: state transitions are rare next to morsel work, so contention is
// irrelevant and there is no lock order to get wrong). `token` is safe to
// read lock-free; `result`/`stats` are written by the driver outside the
// lock but only read after the mutex-published transition to kDone.
struct TicketState {
  QuerySpec spec;
  uint64_t query_id = 0;
  double priority = 1.0;
  int threads = 1;
  int64_t deadline_us = 0;  // obs::NowMicros clock, from submission; 0 = none

  int64_t submit_us = 0;
  int64_t admit_us = 0;
  int64_t finish_us = 0;
  int64_t driver_cpu_us = 0;  // driver thread CPU across ExecuteQuery
  parallel::LaneUsage usage;  // lane totals (tasks, rows, worker CPU)
  flight::QueryResourceReport report;

  TicketPhase phase = TicketPhase::kQueued;
  bool entered_queue = false;  // false for immediate rejects
  bool cancel_requested = false;
  parallel::CancellationToken token;
  Status status;
  bool has_result = false;
  exec::Relation result;
  exec::QueryStats stats;
  int64_t pipelines = 0;
  int64_t tasks = 0;
  std::condition_variable done_cv;
};

struct ServiceCore {
  ServiceOptions opts;
  AdmissionController admission;
  parallel::FairPipelineScheduler scheduler;
  SloTracker slo;

  mutable std::mutex mu;
  std::condition_variable work_cv;  // drivers wait here for work / memory
  std::deque<std::shared_ptr<TicketState>> pending;
  int running = 0;
  bool stopping = false;

  // Flight dumps requested by FinalizeLocked (which holds mu): queued
  // here and written after the lock is released — a dump walks every
  // recorder ring and writes files, far too heavy for the service mutex.
  struct PendingDump {
    int64_t since_us = 0;
    std::string path;
    // The triggering query's timeline slice (empty when the sampler was
    // off), captured at queue time: the sampler ring trims oldest-first,
    // so slicing at flush time could lose the very samples the trigger
    // was about. Its counter tracks go into the same dump file.
    obs::timeline::QueryTimeline timeline;
  };
  std::vector<PendingDump> pending_dumps;
  int dumps_done = 0;
  int dump_seq = 0;

  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* rejected;
  obs::Counter* cancelled;
  obs::Counter* timeout;
  obs::Counter* failed;
  obs::Gauge* active_g;
  obs::Gauge* queued_g;
  obs::Histogram* queue_wait_h;
  obs::Histogram* exec_h;
  obs::Histogram* latency_h;
  obs::Counter* trigger_latency_c;
  obs::Counter* trigger_status_c;

  ServiceCore(const ServiceOptions& o, parallel::ThreadPool* pool)
      : opts(o), admission({o.budget_bytes}), scheduler(pool), slo(o.slo) {
    auto& reg = obs::MetricsRegistry::Global();
    submitted = &reg.counter("service.submitted");
    completed = &reg.counter("service.completed");
    rejected = &reg.counter("service.rejected");
    cancelled = &reg.counter("service.cancelled");
    timeout = &reg.counter("service.timeout");
    failed = &reg.counter("service.failed");
    active_g = &reg.gauge("service.active");
    queued_g = &reg.gauge("service.queued");
    queue_wait_h = &reg.histogram("service.queue_wait_us");
    exec_h = &reg.histogram("service.exec_us");
    latency_h = &reg.histogram("service.latency_us");
    trigger_latency_c = &reg.counter("flight.trigger.latency");
    trigger_status_c = &reg.counter("flight.trigger.status");
  }

  // Caller must hold mu. Publishes the terminal state and all metrics.
  void FinalizeLocked(const std::shared_ptr<TicketState>& t, Status status) {
    t->finish_us = obs::NowMicros();
    if (!status.ok()) {
      t->result = exec::Relation();
      t->has_result = false;
    }
    switch (status.code()) {
      case StatusCode::kOk:
        completed->Add(1);
        break;
      case StatusCode::kResourceExhausted:
        rejected->Add(1);
        break;
      case StatusCode::kCancelled:
        cancelled->Add(1);
        break;
      case StatusCode::kDeadlineExceeded:
        timeout->Add(1);
        break;
      default:
        failed->Add(1);
        break;
    }
    const int64_t wall = t->finish_us - t->submit_us;
    // Queue-wait covers every query that ever waited, not only admitted
    // ones: a query cancelled or rejected *while queued* waited its whole
    // life, and skipping those was survivorship bias in the tail metrics.
    const int64_t queue_wait =
        t->admit_us > 0 ? t->admit_us - t->submit_us
                        : (t->entered_queue ? wall : 0);
    if (t->admit_us > 0) {
      queue_wait_h->Record(static_cast<double>(queue_wait));
      exec_h->Record(static_cast<double>(t->finish_us - t->admit_us));
    } else if (t->entered_queue) {
      queue_wait_h->Record(static_cast<double>(queue_wait));
    }
    // Latency histograms cover queries that entered the queue; immediate
    // rejects would only drag the percentiles toward zero.
    if (t->entered_queue) {
      const double latency = static_cast<double>(wall);
      latency_h->Record(latency);
      if (opts.track_session_metrics && !t->spec.session_id.empty()) {
        obs::MetricsRegistry::Global()
            .histogram("service.session." + t->spec.session_id + ".latency_us")
            .Record(latency);
      }
    }

    // Per-query resource report: always built, attached to the ticket.
    flight::QueryResourceReport& r = t->report;
    r.query_id = t->query_id;
    r.wall_us = wall;
    r.queue_wait_us = queue_wait;
    r.exec_us = t->admit_us > 0 ? t->finish_us - t->admit_us : 0;
    r.driver_cpu_us = t->driver_cpu_us;
    r.worker_cpu_us = t->usage.worker_cpu_us;
    r.cpu_us = r.driver_cpu_us + r.worker_cpu_us;
    r.pipelines = t->usage.pipelines;
    r.tasks = t->usage.tasks;
    r.rows = t->usage.rows;
    r.bytes_scanned = t->stats.TotalSeqBytes();
    r.mem_peak_bytes = t->stats.peak_intermediate_bytes;
    r.threads = t->threads;
    t->pipelines = t->usage.pipelines;
    t->tasks = t->usage.tasks;

    // SLO accounting: every query that entered the queue counts, and a
    // reject/cancel/timeout is a miss — unserved is unserved.
    if (t->entered_queue && slo.enabled()) {
      slo.Record(t->priority, status.ok(), wall, t->finish_us);
    }

    // Flight-recorder terminal event.
    const StatusCode code = status.code();
    if (t->admit_us == 0 && code == StatusCode::kCancelled) {
      flight::FlightRecorder::Record(flight::EventKind::kQueryCancelQueued,
                                     t->query_id, 0, queue_wait);
    } else if (t->admit_us == 0 && !status.ok()) {
      flight::FlightRecorder::Record(flight::EventKind::kQueryReject,
                                     t->query_id, static_cast<int32_t>(code),
                                     queue_wait);
    } else {
      flight::FlightRecorder::Record(flight::EventKind::kQueryFinish,
                                     t->query_id, static_cast<int32_t>(code),
                                     wall);
    }

    // Timeline slice: when the roofline sampler is running, grab this
    // query's submit->finish window of the sampled series now (the ring
    // trims oldest-first). The sampler lock nests inside mu here; the
    // sampler never takes service locks, so the order is acyclic.
    obs::timeline::QueryTimeline qtl;
    bool have_timeline = false;
    if (obs::timeline::SamplerEnabled()) {
      qtl = obs::timeline::TimelineSampler::Global().Slice(t->submit_us,
                                                           t->finish_us);
      have_timeline = true;
    }

    // Tail-based triggers: a matching query lands in the slow-query log
    // and (when configured) schedules a retroactive flight dump. Dumps
    // are queued for after the mutex release (see pending_dumps).
    const char* trigger = nullptr;
    if (code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kCancelled ||
        code == StatusCode::kResourceExhausted) {
      trigger = "status";
    }
    int64_t threshold = opts.flight.latency_threshold_us;
    if (threshold == 0) threshold = slo.ObjectiveFor(t->priority);
    if (trigger == nullptr && threshold > 0 && wall > threshold) {
      trigger = "latency";
    }
    if (trigger != nullptr) {
      (trigger[0] == 'l' ? trigger_latency_c : trigger_status_c)->Add(1);
      flight::SlowQueryEntry entry;
      entry.ts_us = t->finish_us;
      entry.label = t->spec.label;
      entry.session = t->spec.session_id;
      entry.status = Status::CodeName(code);
      entry.trigger = trigger;
      entry.priority = t->priority;
      entry.report = r;
      flight::SlowQueryLog::Global().Append(std::move(entry));
      if (!opts.flight.dump_path.empty() &&
          dumps_done < opts.flight.max_dumps) {
        ++dumps_done;
        std::string path = opts.flight.dump_path;
        if (dump_seq > 0) {
          path += '.';
          path += std::to_string(dump_seq);
        }
        ++dump_seq;
        pending_dumps.push_back({t->submit_us - kDumpWindowMarginUs,
                                 std::move(path), qtl});
      }
    }

    // Attach the slice to the ticket's report last, after the slow-query
    // entry copied `r`: log entries stay sample-free by construction.
    if (have_timeline) {
      r.timeline = std::move(qtl);
      r.timeline_valid = true;
    }

    t->status = std::move(status);
    t->phase = TicketPhase::kDone;
    t->done_cv.notify_all();
  }

  // Writes any dumps FinalizeLocked queued. Caller must NOT hold mu.
  void FlushDumps() {
    std::vector<PendingDump> dumps;
    {
      std::lock_guard<std::mutex> lock(mu);
      dumps.swap(pending_dumps);
    }
    for (const PendingDump& d : dumps) {
      std::string error;
      if (!flight::FlightRecorder::Global().DumpSince(d.since_us, d.path,
                                                      d.timeline, &error)) {
        WIMPI_LOG(Warning) << "flight dump to " << d.path
                        << " failed: " << error;
      }
    }
  }

  // Runs the claimed query on this driver thread. Called without mu held.
  Status ExecuteQuery(TicketState* t) {
    // Whole-query driver CPU window: covers sequential phases and every
    // driver-run morsel; drain-slot morsels are accounted separately by
    // the lane (LaneUsage::worker_cpu_us).
    const int64_t cpu0 = obs::ThreadCpuMicros();
    const int lane =
        scheduler.OpenLane(t->priority, &t->token, t->deadline_us);
    Status status;
    {
      parallel::LaneScheduler lane_sched(&scheduler, lane, t->query_id);
      exec::ExecOptions eopts;
      eopts.num_threads = t->threads;
      eopts.morsel_rows = opts.morsel_rows;
      eopts.cancellation = &t->token;
      eopts.pipeline_scheduler = &lane_sched;
      exec::ScopedExecOptions scoped(eopts);
      try {
        t->result = t->spec.plan(&t->stats);
        t->has_result = true;
      } catch (const std::exception& e) {
        status = Status::Internal(e.what());
      } catch (...) {
        status = Status::Internal("unknown exception in query plan");
      }
    }
    const bool deadline_fired = scheduler.LaneDeadlineFired(lane);
    scheduler.CloseLane(lane, &t->usage);
    t->driver_cpu_us = obs::ThreadCpuMicros() - cpu0;
    // A fired token means morsel loops skipped work: whatever the plan
    // returned is partial and must not be surfaced as an answer.
    if (status.ok() && t->token.cancelled()) {
      status = deadline_fired
                   ? Status::DeadlineExceeded("query timed out after " +
                                              std::to_string(t->spec.timeout_us) +
                                              " us")
                   : Status::Cancelled("query cancelled");
    }
    return status;
  }

  void DriverLoop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      // FIFO-with-skip scan: finalize queued tickets that were cancelled or
      // ran out their deadline, then claim the first whose reservation fits
      // the unreserved budget right now.
      std::shared_ptr<TicketState> claimed;
      int64_t nearest_deadline = 0;
      const int64_t now = obs::NowMicros();
      for (auto it = pending.begin(); it != pending.end();) {
        TicketState* t = it->get();
        if (t->cancel_requested) {
          auto dead = *it;
          it = pending.erase(it);
          FinalizeLocked(dead, Status::Cancelled("cancelled while queued"));
          continue;
        }
        if (t->deadline_us > 0 && now >= t->deadline_us) {
          auto dead = *it;
          it = pending.erase(it);
          FinalizeLocked(dead,
                         Status::DeadlineExceeded(
                             "timed out waiting for admission"));
          continue;
        }
        if (claimed == nullptr &&
            admission.TryReserve(t->spec.estimated_bytes)) {
          claimed = *it;
          it = pending.erase(it);
          continue;
        }
        if (t->deadline_us > 0 &&
            (nearest_deadline == 0 || t->deadline_us < nearest_deadline)) {
          nearest_deadline = t->deadline_us;
        }
        ++it;
      }
      queued_g->Set(static_cast<double>(pending.size()));

      // Write any flight dumps queued by the finalizations above (or by
      // the previous iteration's query) before running or blocking. The
      // claimed ticket is already off the queue and reserved, so briefly
      // dropping the lock here races with nothing.
      if (!pending_dumps.empty()) {
        lock.unlock();
        FlushDumps();
        lock.lock();
      }

      if (claimed != nullptr) {
        claimed->phase = TicketPhase::kRunning;
        claimed->admit_us = obs::NowMicros();
        ++running;
        active_g->Set(running);
        flight::FlightRecorder::Record(flight::EventKind::kQueryAdmit,
                                       claimed->query_id, running,
                                       claimed->admit_us - claimed->submit_us);
        lock.unlock();
        Status status = ExecuteQuery(claimed.get());
        lock.lock();
        --running;
        active_g->Set(running);
        admission.Release(claimed->spec.estimated_bytes);
        FinalizeLocked(claimed, std::move(status));
        // Released memory may make a queued query admissible on another
        // driver.
        work_cv.notify_all();
        continue;
      }

      if (stopping && pending.empty()) return;
      // Idle path: block — no deadline means no wakeup until a submit,
      // cancel, release or shutdown notifies. Nothing polls.
      if (nearest_deadline > 0) {
        work_cv.wait_until(lock,
                           std::chrono::steady_clock::time_point(
                               std::chrono::microseconds(nearest_deadline)));
      } else {
        work_cv.wait(lock);
      }
    }
  }
};

}  // namespace internal

using internal::ServiceCore;
using internal::TicketPhase;
using internal::TicketState;

Status QueryTicket::Wait() const {
  WIMPI_CHECK(state_ != nullptr) << "Wait on empty ticket";
  std::unique_lock<std::mutex> lock(core_->mu);
  state_->done_cv.wait(lock,
                       [&] { return state_->phase == TicketPhase::kDone; });
  return state_->status;
}

bool QueryTicket::Done() const {
  WIMPI_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(core_->mu);
  return state_->phase == TicketPhase::kDone;
}

void QueryTicket::Cancel() {
  WIMPI_CHECK(state_ != nullptr);
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    if (state_->phase == TicketPhase::kDone) return;
    state_->cancel_requested = true;
    state_->token.Cancel();
    bool finalized = false;
    if (state_->phase == TicketPhase::kQueued) {
      // Finalize right here: a cancelled queued query must not wait for a
      // driver to free up (all of them may be busy running long queries).
      auto it =
          std::find(core_->pending.begin(), core_->pending.end(), state_);
      if (it != core_->pending.end()) {
        core_->pending.erase(it);
        core_->queued_g->Set(static_cast<double>(core_->pending.size()));
        core_->FinalizeLocked(state_,
                              Status::Cancelled("cancelled while queued"));
        finalized = true;
      }
    }
    // Running: the fired token aborts it at its next morsel dispatch.
    if (!finalized) core_->work_cv.notify_all();
  }
  core_->FlushDumps();
}

exec::Relation QueryTicket::TakeResult() {
  WIMPI_CHECK(state_ != nullptr);
  std::lock_guard<std::mutex> lock(core_->mu);
  WIMPI_CHECK(state_->phase == TicketPhase::kDone && state_->has_result)
      << "TakeResult on a query without a result";
  state_->has_result = false;
  return std::move(state_->result);
}

const exec::QueryStats& QueryTicket::stats() const { return state_->stats; }

int64_t QueryTicket::queue_wait_us() const {
  // From the finalized report, so queued-but-never-admitted tickets
  // (cancelled/rejected in queue) report their time-in-queue too.
  return state_->report.queue_wait_us;
}
int64_t QueryTicket::exec_us() const {
  return state_->admit_us > 0 ? state_->finish_us - state_->admit_us : 0;
}
int64_t QueryTicket::pipelines() const { return state_->pipelines; }
int64_t QueryTicket::tasks() const { return state_->tasks; }
uint64_t QueryTicket::query_id() const { return state_->query_id; }

const obs::flight::QueryResourceReport& QueryTicket::resources() const {
  return state_->report;
}

QueryService::QueryService(ServiceOptions opts) {
  WIMPI_CHECK(opts.max_active > 0);
  WIMPI_CHECK(opts.max_queue >= 0);
  parallel::ThreadPool* pool =
      opts.pool != nullptr ? opts.pool
                           : &parallel::TaskScheduler::Global().pool();
  core_ = std::make_shared<ServiceCore>(opts, pool);
  drivers_.reserve(static_cast<size_t>(opts.max_active));
  for (int i = 0; i < opts.max_active; ++i) {
    drivers_.emplace_back([core = core_] { core->DriverLoop(); });
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    core_->stopping = true;
    core_->work_cv.notify_all();
  }
  // Drivers drain the queue before exiting (the stop condition requires an
  // empty queue), so every outstanding ticket is Done after the joins.
  for (std::thread& t : drivers_) t.join();
  core_->FlushDumps();
}

QueryTicket QueryService::Submit(QuerySpec spec) {
  ServiceCore& core = *core_;
  auto t = std::make_shared<TicketState>();
  t->spec = std::move(spec);
  t->query_id =
      internal::g_next_query_id.fetch_add(1, std::memory_order_relaxed);
  t->priority =
      t->spec.priority > 0 ? t->spec.priority : internal::kDefaultPriority;
  t->threads =
      t->spec.num_threads > 0 ? t->spec.num_threads : core.opts.query_threads;
  t->submit_us = obs::NowMicros();
  if (t->spec.timeout_us > 0) t->deadline_us = t->submit_us + t->spec.timeout_us;
  internal::flight::FlightRecorder::Record(
      internal::flight::EventKind::kQuerySubmit, t->query_id,
      static_cast<int32_t>(t->priority * 1000), t->spec.estimated_bytes);

  {
    std::lock_guard<std::mutex> lock(core.mu);
    core.submitted->Add(1);
    if (!t->spec.plan) {
      core.FinalizeLocked(t, Status::InvalidArgument("query has no plan"));
    } else if (core.stopping) {
      core.FinalizeLocked(t, Status::Unavailable("service shutting down"));
    } else if (!core.admission.FitsBudget(t->spec.estimated_bytes)) {
      // Never admissible: reject now instead of queueing forever.
      core.FinalizeLocked(
          t, Status::ResourceExhausted(
                 "estimated working set (" +
                 std::to_string(t->spec.estimated_bytes) +
                 " bytes) exceeds the node budget (" +
                 std::to_string(core.admission.budget_bytes()) + " bytes)"));
    } else if (static_cast<int>(core.pending.size()) >= core.opts.max_queue) {
      core.FinalizeLocked(
          t, Status::ResourceExhausted(
                 "admission queue full (" +
                 std::to_string(core.opts.max_queue) + " queries)"));
    } else {
      t->entered_queue = true;
      core.pending.push_back(t);
      core.queued_g->Set(static_cast<double>(core.pending.size()));
      internal::flight::FlightRecorder::Record(
          internal::flight::EventKind::kQueueEnter, t->query_id,
          static_cast<int32_t>(core.pending.size()));
      core.work_cv.notify_one();
    }
  }
  core.FlushDumps();
  return QueryTicket(core_, std::move(t));
}

Status QueryService::Execute(QuerySpec spec, exec::Relation* result) {
  QueryTicket ticket = Submit(std::move(spec));
  Status status = ticket.Wait();
  if (status.ok() && result != nullptr) *result = ticket.TakeResult();
  return status;
}

int QueryService::active() const {
  std::lock_guard<std::mutex> lock(core_->mu);
  return core_->running;
}

int QueryService::queued() const {
  std::lock_guard<std::mutex> lock(core_->mu);
  return static_cast<int>(core_->pending.size());
}

const AdmissionController& QueryService::admission() const {
  return core_->admission;
}

QueryTicket ClientSession::Submit(QuerySpec spec) {
  spec.session_id = id_;
  if (spec.priority <= 0) spec.priority = priority_;
  return service_->Submit(std::move(spec));
}

Status ClientSession::Execute(QuerySpec spec, exec::Relation* result) {
  spec.session_id = id_;
  if (spec.priority <= 0) spec.priority = priority_;
  return service_->Execute(std::move(spec), result);
}

}  // namespace wimpi::service
