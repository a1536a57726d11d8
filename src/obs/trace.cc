#include "obs/trace.h"

#include <cstdio>

#include "common/file_util.h"
#include "common/json.h"

namespace wimpi::obs {

namespace {

std::string HexId(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

// Writes the shared per-event fields ("args" merges the distributed ids
// with the caller's pre-rendered object, so both renderings expose the
// causal tree the same way).
void WriteEventBody(JsonWriter& w, const TraceEvent& e) {
  const char ph[2] = {e.phase, '\0'};
  w.Key("name").String(e.name)
      .Key("cat").String(e.category)
      .Key("ph").String(ph)
      .Key("ts").Int(e.ts_us);
  if (e.phase == 'X') w.Key("dur").Int(e.dur_us);
  w.Key("pid").Int(e.pid).Key("tid").Int(e.tid);
  if (e.phase == 'i') w.Key("s").String("t");  // instant scope: thread
  if (e.flow_id != 0) {
    w.Key("id").String(HexId(e.flow_id));
    // Bind the finish side to the slice starting at this timestamp.
    if (e.phase == 'f') w.Key("bp").String("e");
  }
  const bool has_ids = e.trace_id != 0 || e.span_id != 0;
  if (has_ids || !e.args_json.empty()) {
    w.Key("args").BeginObject();
    if (e.trace_id != 0) w.Key("trace").String(HexId(e.trace_id));
    if (e.span_id != 0) w.Key("span").String(HexId(e.span_id));
    if (e.parent_id != 0) w.Key("parent").String(HexId(e.parent_id));
    if (!e.args_json.empty()) w.RawMembers(e.args_json);
    w.EndObject();
  }
}

}  // namespace

std::string TraceEventsToJson(const std::vector<TraceEvent>& events) {
  bool has_cluster = false, has_query_lanes = false;
  for (const TraceEvent& e : events) {
    if (e.pid == kTracePidCluster) has_cluster = true;
    if (e.pid == kTracePidQueryLanes) has_query_lanes = true;
  }
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  // Name the process groups so viewers label each clock.
  auto process_name = [&](int pid, const char* name) {
    w.BeginObject()
        .Key("name").String("process_name")
        .Key("ph").String("M")
        .Key("pid").Int(pid)
        .Key("tid").Int(0)
        .Key("args").BeginObject().Key("name").String(name).EndObject()
        .EndObject();
  };
  process_name(kTracePidHost, "wimpi host (real time)");
  if (has_cluster) process_name(kTracePidCluster, "wimpi cluster (modeled time)");
  if (has_query_lanes) {
    process_name(kTracePidQueryLanes, "wimpi query lanes (real time)");
  }
  for (const TraceEvent& e : events) {
    w.BeginObject();
    WriteEventBody(w, e);
    w.EndObject();
  }
  w.EndArray().Key("displayTimeUnit").String("ms").EndObject();
  return w.str();
}

bool WriteTraceFile(const std::string& path,
                    const std::vector<TraceEvent>& events,
                    std::string* error) {
  return WriteTextFile(path, TraceEventsToJson(events), error);
}

}  // namespace wimpi::obs
