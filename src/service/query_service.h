#ifndef WIMPI_SERVICE_QUERY_SERVICE_H_
#define WIMPI_SERVICE_QUERY_SERVICE_H_

// Concurrent query service for one wimpy node (ISSUE #6 tentpole).
//
// Many client sessions submit plans; the service runs up to `max_active` of
// them concurrently, each on its own driver thread, all sharing the one
// process-wide ThreadPool through a FairPipelineScheduler lane (stride
// scheduling ⇒ morsel throughput proportional to priority). Admission
// control reserves each query's estimated working set against the node's
// memory budget before it may start: queries that can never fit are
// rejected with kResourceExhausted immediately; queries that do not fit
// *right now* wait in a bounded queue. Cancellation and timeouts are
// cooperative — a fired token (or expired deadline) is seen at every
// operator phase start and before every morsel dispatch; the cancelled
// pipeline throws, so the driver returns promptly with kCancelled /
// kDeadlineExceeded. Cancellation latency is bounded by the longest
// morsel (a whole phase at one thread), not by query runtime.
//
// Determinism: morsel boundaries and merge order are scheduler-independent,
// so every answer the service produces is bit-identical to running the same
// plan in isolation (tests/service_test.cc verifies all 22 TPC-H queries).
//
// The single-query path (engine::Executor with no service) dispatches
// through the same FairPipelineScheduler, on PipelineScheduler::Default()'s
// one permanent lane; everything else here (admission, queueing, drivers,
// SLOs) exists only once a caller constructs a QueryService.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exec/counters.h"
#include "exec/relation.h"
#include "obs/flight/resource_report.h"
#include "parallel/fair_scheduler.h"
#include "service/admission.h"
#include "service/slo_tracker.h"

namespace wimpi::parallel {
class ThreadPool;
}  // namespace wimpi::parallel

namespace wimpi::service {

// Tail-based flight-recorder triggers (ISSUE #7): when a finished query
// matches one, its resource report goes to the process-wide slow-query
// log and — when `dump_path` is set — the recorder's recent history is
// retroactively dumped as one Chrome trace.
struct FlightTriggerOptions {
  // Wall-time threshold marking a completed query slow. 0 falls back to
  // the query's SLO objective (if SLOs are configured); < 0 disables
  // latency triggers. kDeadlineExceeded / kCancelled / kResourceExhausted
  // always trigger.
  int64_t latency_threshold_us = 0;
  // Dump destination: one trace file per dump (FlightRecorder::DumpSince:
  // flight spans and instants, plus the triggering query's timeline.*
  // counter tracks when the sampler was running). Later dumps append
  // ".1", ".2", ... Empty path = log slow queries without writing dump
  // files.
  std::string dump_path;
  // Cap on dump files per service (each dump rewrites the whole window).
  int max_dumps = 4;
};

struct ServiceOptions {
  // Per-node memory budget the admission controller reserves against;
  // defaults to the paper's 1 GB wimpy node. <= 0 disables the budget.
  int64_t budget_bytes = int64_t{1} << 30;
  // Concurrently *running* queries (= driver threads).
  int max_active = 4;
  // Bounded admission queue; a submit beyond this depth is rejected with
  // kResourceExhausted instead of queueing without bound.
  int max_queue = 64;
  // Threads (including the driver) each query's parallel phases may use.
  int query_threads = 4;
  int64_t morsel_rows = 64 * 1024;
  // Also record per-session latency histograms
  // ("service.session.<id>.latency_us"). Off by default: thousands of
  // sessions would otherwise each allocate a registry histogram.
  bool track_session_metrics = false;
  // Pool the fair scheduler drains into; null means
  // parallel::TaskScheduler::Global().pool(), which the single-query
  // default lane shares.
  parallel::ThreadPool* pool = nullptr;
  // Per-priority-class latency objectives; tracking is off until an
  // objective is set (slo.default_objective_us > 0 or a per-class entry).
  SloOptions slo;
  // Tail-based flight-recorder triggers; see FlightTriggerOptions.
  FlightTriggerOptions flight;
};

// One query as submitted: a label, a plan closure producing the answer
// relation, and scheduling inputs. The plan runs on a service driver
// thread under that query's ExecOptions (thread count, morsel size,
// cancellation token, fair-scheduler lane).
struct QuerySpec {
  std::string label;
  std::function<exec::Relation(exec::QueryStats*)> plan;
  // Estimated working set (see EstimateWorkingSetBytes); reserved against
  // the budget for the query's whole run. <= 0 reserves nothing.
  int64_t estimated_bytes = 0;
  // Stride-scheduling weight; 0 means kDefaultPriority (1.0).
  double priority = 0;
  // Overrides ServiceOptions::query_threads when > 0.
  int num_threads = 0;
  // Wall-clock budget measured from submission; 0 means none.
  int64_t timeout_us = 0;
  // Owning session, for attribution (metrics / wimpi_top).
  std::string session_id;
};

namespace internal {
struct ServiceCore;
struct TicketState;
}  // namespace internal

// Handle to one submitted query. Copyable; all copies refer to the same
// underlying query. Valid even after the QueryService is destroyed (the
// service drains before shutdown, so the ticket is then Done).
class QueryTicket {
 public:
  QueryTicket() = default;

  // Blocks until the query finishes (completed, rejected, cancelled or
  // timed out) and returns its final status.
  Status Wait() const;
  bool Done() const;

  // Requests cooperative cancellation: a queued query finalizes without
  // starting; a running one aborts at its next morsel dispatch.
  void Cancel();

  // Moves out the answer relation. Only meaningful once Wait() returned
  // OK; at most one caller may take it.
  exec::Relation TakeResult();

  // Post-completion introspection (stable once Done()).
  const exec::QueryStats& stats() const;
  int64_t queue_wait_us() const;  // submit -> admission
  int64_t exec_us() const;        // admission -> finish
  int64_t pipelines() const;      // parallel pipelines run
  int64_t tasks() const;          // morsel tasks run
  // Service-wide query id (tags the query's flight-recorder events).
  uint64_t query_id() const;
  // Full resource accounting: wall/queue/CPU time, morsels, rows, bytes
  // scanned, memory peak (see obs/flight/resource_report.h).
  const obs::flight::QueryResourceReport& resources() const;

 private:
  friend class QueryService;
  QueryTicket(std::shared_ptr<internal::ServiceCore> core,
              std::shared_ptr<internal::TicketState> state)
      : core_(std::move(core)), state_(std::move(state)) {}

  std::shared_ptr<internal::ServiceCore> core_;
  std::shared_ptr<internal::TicketState> state_;
};

class QueryService {
 public:
  explicit QueryService(ServiceOptions opts = {});
  // Drains: waits for every queued and running query to finalize, then
  // stops the driver threads.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Admits or queues the query; returns its ticket. Submissions that can
  // never run (estimate over the whole budget) or do not fit the bounded
  // queue come back already Done with kResourceExhausted.
  QueryTicket Submit(QuerySpec spec);

  // Convenience: Submit + Wait.
  Status Execute(QuerySpec spec, exec::Relation* result = nullptr);

  // Point-in-time service state (also exported as service.* metrics).
  int active() const;
  int queued() const;

  // Admission state, for asserting peak reserved bytes never exceeded the
  // budget.
  const AdmissionController& admission() const;

 private:
  std::shared_ptr<internal::ServiceCore> core_;
  std::vector<std::thread> drivers_;
};

// A client session: a named principal submitting queries with a default
// priority. Sessions are lightweight objects — thousands can multiplex
// over the service's few driver threads (closed-loop benchmark clients are
// just loops around session.Execute).
class ClientSession {
 public:
  ClientSession(QueryService* service, std::string id, double priority = 0)
      : service_(service), id_(std::move(id)), priority_(priority) {}

  const std::string& id() const { return id_; }

  // Stamps the session id (and its priority, unless the spec sets one)
  // onto the spec and submits it.
  QueryTicket Submit(QuerySpec spec);
  Status Execute(QuerySpec spec, exec::Relation* result = nullptr);

 private:
  QueryService* service_;
  std::string id_;
  double priority_;
};

}  // namespace wimpi::service

#endif  // WIMPI_SERVICE_QUERY_SERVICE_H_
