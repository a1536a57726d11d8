#ifndef WIMPI_OBS_TRACE_H_
#define WIMPI_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wimpi::obs {

// Process ids used to separate the two clocks a distributed run mixes:
// real host time (operator scopes, morsel tasks) and the simulated node
// clock of the cluster driver. Viewers render them as two process groups
// of one timeline; span ids still join them into one causal tree. Flight
// dumps add a third group, one real-time row per query lifecycle.
inline constexpr int kTracePidHost = 1;
inline constexpr int kTracePidCluster = 2;
inline constexpr int kTracePidQueryLanes = 3;

// One event in Chrome trace-event format. Nothing records these while a
// run executes: every trace is a rendering of what a run already keeps
// (QueryProfile::ToTraceEvents, FlightRecorder::ToTraceEvents,
// cluster::ClusterTrace). Timestamps are NowMicros() values for host
// events and modeled microseconds for cluster events; tids are the dense
// flight-ring thread ids (host) or lane ids picked by the cluster renderer
// so chrome://tracing / Perfetto renders one row per worker / node.
//
// The distributed-tracing ids (trace/span/parent) make the causal tree
// explicit: a span with parent_id P is a child of the span whose span_id
// is P, wherever (and on whichever clock) that span ran. Flow events
// ('s'/'f' pairs sharing flow_id) add non-tree causal links, e.g. fault
// event -> the retry it caused.
struct TraceEvent {
  std::string name;
  const char* category = "exec";
  // 'X' complete span, 'i' instant event, 's'/'f' flow start/finish.
  char phase = 'X';
  int64_t ts_us = 0;
  int64_t dur_us = 0;  // 'X' only
  int tid = 0;
  int pid = kTracePidHost;
  uint64_t trace_id = 0;   // 0 = not part of a distributed trace
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root of its trace
  uint64_t flow_id = 0;    // 's'/'f' pair id
  // Optional pre-rendered JSON object for the "args" field (e.g.
  // R"({"morsel":3,"rows":65536})"); empty = no args. The exporter merges
  // the span ids into the same object.
  std::string args_json;
};

// The one Chrome-trace writer (every trace and flight dump uses it):
// {"traceEvents":[...],"displayTimeUnit":"ms"} — loadable by
// chrome://tracing and https://ui.perfetto.dev, with a process_name label
// for the host group and for each other kTracePid* group present.
// Span/trace ids are exported inside each event's args ("trace"/"span"/
// "parent" hex strings) so external tools can rebuild the causal tree.
std::string TraceEventsToJson(const std::vector<TraceEvent>& events);

// Writes `events` to `path` as one Chrome trace (TraceEventsToJson). Every
// trace and telemetry dump file goes through here. Returns false and fills
// *error when it cannot write.
bool WriteTraceFile(const std::string& path,
                    const std::vector<TraceEvent>& events,
                    std::string* error = nullptr);

}  // namespace wimpi::obs

#endif  // WIMPI_OBS_TRACE_H_
