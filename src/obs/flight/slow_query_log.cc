#include "obs/flight/slow_query_log.h"

#include <utility>

#include "common/file_util.h"
#include "common/json.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace wimpi::obs::flight {

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();
  return *log;
}

void SlowQueryLog::Append(SlowQueryEntry entry) {
  MetricsRegistry::Global().counter("slowlog.entries").Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  entries_.push_back(std::move(entry));
  while (entries_.size() > capacity_) entries_.pop_front();
}

std::vector<SlowQueryEntry> SlowQueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

size_t SlowQueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t SlowQueryLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  total_ = 0;
}

void SlowQueryLog::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (entries_.size() > capacity_) entries_.pop_front();
}

std::string SlowQueryLog::ToJsonl() const {
  const std::vector<SlowQueryEntry> entries = Snapshot();
  std::string out;
  for (const SlowQueryEntry& e : entries) {
    const QueryResourceReport& r = e.report;
    JsonWriter w;
    w.BeginObject()
        .Key("ts_us").Int(e.ts_us)
        .Key("query").Int(static_cast<int64_t>(r.query_id))
        .Key("label").String(e.label)
        .Key("session").String(e.session)
        .Key("status").String(e.status)
        .Key("trigger").String(e.trigger)
        .Key("priority").Double(e.priority)
        .Key("wall_us").Int(r.wall_us)
        .Key("queue_wait_us").Int(r.queue_wait_us)
        .Key("exec_us").Int(r.exec_us)
        .Key("cpu_us").Int(r.cpu_us)
        .Key("driver_cpu_us").Int(r.driver_cpu_us)
        .Key("worker_cpu_us").Int(r.worker_cpu_us)
        .Key("pipelines").Int(r.pipelines)
        .Key("tasks").Int(r.tasks)
        .Key("rows").Int(r.rows)
        .Key("bytes_scanned").Double(r.bytes_scanned)
        .Key("mem_peak_bytes").Double(r.mem_peak_bytes)
        .Key("threads").Int(r.threads)
        .EndObject();
    out += w.str();
    out += '\n';
  }
  return out;
}

bool SlowQueryLog::WriteFile(const std::string& path) const {
  std::string error;
  if (!WriteTextFile(path, ToJsonl(), &error)) {
    WIMPI_LOG(Error) << "slow-query log: " << error;
    return false;
  }
  return true;
}

}  // namespace wimpi::obs::flight
