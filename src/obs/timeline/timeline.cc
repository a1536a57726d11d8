#include "obs/timeline/timeline.h"

#include <algorithm>

#include "common/json.h"

namespace wimpi::obs::timeline {

namespace {

// Interval rates from a cumulative-counter delta. dt <= 0 (clock went
// nowhere between ticks) yields "unavailable" rather than infinities.
void FillRates(const PerfCounts& d, double dt_s, TimelineInterval* out) {
  if (dt_s <= 0) return;
  const double dram = d.DramBytes();
  if (dram >= 0) out->gbps = dram / dt_s / 1e9;
  out->ipc = d.Ipc();
  if (d.Has(PerfEvent::kInstructions)) {
    out->instr_per_sec =
        static_cast<double>(d.Get(PerfEvent::kInstructions)) / dt_s;
  }
  if (d.Has(PerfEvent::kTaskClockNs)) {
    out->cpu_util =
        static_cast<double>(d.Get(PerfEvent::kTaskClockNs)) / (dt_s * 1e9);
  }
}

// The interval from sample `a` to the later sample `b`. State fields
// describe `b`: what the node was doing when the later tick landed.
TimelineInterval Between(const TimelineSample& a, const TimelineSample& b) {
  TimelineInterval iv;
  iv.t0_us = a.ts_us;
  iv.t1_us = b.ts_us;
  iv.dt_s = static_cast<double>(b.ts_us - a.ts_us) * 1e-6;
  FillRates(b.perf.Delta(a.perf), iv.dt_s, &iv);
  iv.mem_used_bytes = b.mem_used_bytes;
  iv.queue_depth = b.queue_depth;
  return iv;
}

}  // namespace

std::vector<TimelineInterval> QueryTimeline::Intervals() const {
  std::vector<TimelineInterval> out;
  if (samples.size() < 2) return out;
  out.reserve(samples.size() - 1);
  for (size_t i = 1; i < samples.size(); ++i) {
    out.push_back(Between(samples[i - 1], samples[i]));
  }
  return out;
}

TimelineInterval QueryTimeline::Over(int64_t t0_us, int64_t t1_us) const {
  // Samples are in tick order, so the ones inside are one sorted run.
  const auto before = [](const TimelineSample& s, int64_t t) {
    return s.ts_us < t;
  };
  const auto first =
      std::lower_bound(samples.begin(), samples.end(), t0_us, before);
  const auto end = std::lower_bound(first, samples.end(), t1_us, before);
  if (end - first < 2) {
    TimelineInterval none;
    none.t0_us = none.t1_us = t0_us;
    return none;
  }
  return Between(*first, *(end - 1));
}

void QueryTimeline::AppendCounterTracks(std::vector<TraceEvent>* out) const {
  auto counter = [out](const char* name, int64_t ts_us, double value) {
    TraceEvent e;
    e.name = name;
    e.category = "timeline";
    e.phase = 'C';
    e.ts_us = ts_us;
    e.pid = kTracePidHost;
    e.tid = 0;
    JsonWriter w;
    w.BeginObject().Key("value").Double(value).EndObject();
    e.args_json = w.str();
    out->push_back(std::move(e));
  };
  for (const TimelineInterval& iv : Intervals()) {
    if (iv.gbps >= 0) counter("timeline.gbps", iv.t1_us, iv.gbps);
    if (iv.ipc >= 0) counter("timeline.ipc", iv.t1_us, iv.ipc);
    if (iv.cpu_util >= 0) counter("timeline.cpu_util", iv.t1_us, iv.cpu_util);
    counter("timeline.mem_mb", iv.t1_us,
            static_cast<double>(iv.mem_used_bytes) / (1024.0 * 1024.0));
    counter("timeline.queue_depth", iv.t1_us, iv.queue_depth);
  }
}

}  // namespace wimpi::obs::timeline
