#ifndef WIMPI_OBS_FLIGHT_RESOURCE_REPORT_H_
#define WIMPI_OBS_FLIGHT_RESOURCE_REPORT_H_

#include <cstdint>

#include "obs/timeline/timeline.h"

namespace wimpi::obs::flight {

// Per-query resource accounting, attached to every QueryTicket and
// emitted to the slow-query log. CPU time is real thread CPU time
// (CLOCK_THREAD_CPUTIME_ID): the driver measures itself across the whole
// execution, pool workers accumulate per remote morsel task, so
// cpu_us = driver_cpu_us + worker_cpu_us never double-counts (driver-run
// morsels are inside the driver's own window). `rows`/`tasks` count the
// fair-scheduled parallel path; sequential phases show up in CPU and
// wall time but not in morsel counts.
struct QueryResourceReport {
  uint64_t query_id = 0;
  int64_t wall_us = 0;        // submit -> finish
  int64_t queue_wait_us = 0;  // submit -> admit (or finish, if never admitted)
  int64_t exec_us = 0;        // admit -> finish (0 if never admitted)
  int64_t cpu_us = 0;         // driver + workers
  int64_t driver_cpu_us = 0;
  int64_t worker_cpu_us = 0;
  int64_t pipelines = 0;      // parallel pipelines run
  int64_t tasks = 0;          // morsel tasks run
  int64_t rows = 0;           // rows processed by those tasks
  double bytes_scanned = 0;   // QueryStats sequential bytes
  double mem_peak_bytes = 0;  // QueryStats peak intermediates
  int threads = 0;            // thread budget the query ran with

  // When the timeline sampler was running while this query executed, its
  // submit->finish slice of the sampled series rides along (bandwidth /
  // IPC / occupancy over time — see obs/timeline/). The copy the
  // slow-query log keeps omits it: log entries stay small, the full
  // series lands in the flight dump as timeline.* counter tracks instead.
  bool timeline_valid = false;
  timeline::QueryTimeline timeline;
};

}  // namespace wimpi::obs::flight

#endif  // WIMPI_OBS_FLIGHT_RESOURCE_REPORT_H_
