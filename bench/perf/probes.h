#ifndef WIMPI_BENCH_PERF_PROBES_H_
#define WIMPI_BENCH_PERF_PROBES_H_

#include <map>
#include <string>

#include "engine/database.h"
#include "spans.h"

namespace wimpi::perf {

// Layer probes for the traced run. Each calls one layer's public functions
// directly, repeats the call, and reports the median; each repetition is a
// span under `parent`.

// exec.kernel.<name>_ns_per_row: single operator calls on the database's
// own lineitem / part / orders columns with `threads` threads and the
// engine's default morsel size.
std::map<std::string, double> KernelProbes(const engine::Database& db,
                                           int threads, SpanLog* log,
                                           int64_t parent);

// Empty-body pipelines: parallel.dispatch_us_per_pipeline and
// parallel.dispatch_ns_per_morsel through PipelineScheduler::Default(),
// and service.lane_dispatch_ns_per_morsel through a LaneScheduler on a
// FairPipelineScheduler over the same process-wide pool.
std::map<std::string, double> DispatchProbes(int threads, SpanLog* log,
                                             int64_t parent);

}  // namespace wimpi::perf

#endif  // WIMPI_BENCH_PERF_PROBES_H_
