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

}  // namespace

double PipelineWindow::Gbps() const {
  const double dram = delta.DramBytes();
  if (dram < 0 || seconds <= 0) return -1;
  return dram / seconds / 1e9;
}

double PipelineWindow::Ipc() const { return delta.Ipc(); }

std::vector<TimelineInterval> QueryTimeline::Intervals() const {
  std::vector<TimelineInterval> out;
  if (samples.size() < 2) return out;
  out.reserve(samples.size() - 1);
  for (size_t i = 1; i < samples.size(); ++i) {
    const TimelineSample& a = samples[i - 1];
    const TimelineSample& b = samples[i];
    TimelineInterval iv;
    iv.t0_us = a.ts_us;
    iv.t1_us = b.ts_us;
    iv.dt_s = static_cast<double>(b.ts_us - a.ts_us) * 1e-6;
    FillRates(b.perf.Delta(a.perf), iv.dt_s, &iv);
    // State fields describe the interval's end sample: what the node was
    // doing when the tick landed.
    iv.mem_used_bytes = b.mem_used_bytes;
    iv.queue_depth = b.queue_depth;
    iv.num_active = b.num_active;
    out.push_back(iv);
  }
  return out;
}

std::vector<PipelineWindow> QueryTimeline::PipelineWindows() const {
  std::vector<PipelineWindow> out;
  // Open windows per lane, keyed by slot position in `out`.
  std::array<int, TimelineSample::kMaxActive * 16> open;
  open.fill(-1);
  auto open_index = [&open](int lane) -> int& {
    return open[static_cast<size_t>(lane) % open.size()];
  };
  int64_t prev_ts = samples.empty() ? 0 : samples.front().ts_us;
  for (const TimelineSample& s : samples) {
    // Close windows whose (lane, seq) no longer appears in this sample.
    for (size_t slot = 0; slot < open.size(); ++slot) {
      const int idx = open[slot];
      if (idx < 0) continue;
      bool still_active = false;
      for (int i = 0; i < s.num_active; ++i) {
        const ActivitySample& a = s.active[static_cast<size_t>(i)];
        if (a.lane == out[static_cast<size_t>(idx)].lane &&
            a.seq == out[static_cast<size_t>(idx)].seq) {
          still_active = true;
          break;
        }
      }
      if (!still_active) open[slot] = -1;
    }
    for (int i = 0; i < s.num_active; ++i) {
      const ActivitySample& a = s.active[static_cast<size_t>(i)];
      if (a.lane < 0) continue;
      int& idx = open_index(a.lane);
      if (idx >= 0 && out[static_cast<size_t>(idx)].seq == a.seq) {
        // Extend: the same pipeline is still running on this lane.
        PipelineWindow& w = out[static_cast<size_t>(idx)];
        w.t1_us = s.ts_us;
        w.seconds = static_cast<double>(w.t1_us - w.t0_us) * 1e-6;
        continue;
      }
      PipelineWindow w;
      w.lane = a.lane;
      w.query_id = a.query_id;
      w.seq = a.seq;
      w.label = a.label;
      // The pipeline started somewhere between the previous tick and this
      // one; attribute from the previous tick (at most one period early).
      w.t0_us = prev_ts;
      w.t1_us = s.ts_us;
      w.seconds = static_cast<double>(w.t1_us - w.t0_us) * 1e-6;
      idx = static_cast<int>(out.size());
      out.push_back(w);
    }
    prev_ts = s.ts_us;
  }
  // Accumulate counter deltas per window from the interval series.
  const std::vector<TimelineInterval> ivs = Intervals();
  for (PipelineWindow& w : out) {
    for (const TimelineInterval& iv : ivs) {
      if (iv.t1_us <= w.t0_us || iv.t0_us >= w.t1_us) continue;
      // Rebuild the raw delta from rates x dt (lossless enough for
      // classification; avoids holding per-interval PerfCounts twice).
      PerfCounts d;
      if (iv.gbps >= 0) {
        d.Set(PerfEvent::kLlcMisses,
              static_cast<int64_t>(iv.gbps * 1e9 * iv.dt_s /
                                   PerfCounts::kBytesPerLine));
      }
      if (iv.instr_per_sec >= 0) {
        d.Set(PerfEvent::kInstructions,
              static_cast<int64_t>(iv.instr_per_sec * iv.dt_s));
        if (iv.ipc > 0) {
          d.Set(PerfEvent::kCycles,
                static_cast<int64_t>(iv.instr_per_sec * iv.dt_s / iv.ipc));
        }
      }
      if (iv.cpu_util >= 0) {
        d.Set(PerfEvent::kTaskClockNs,
              static_cast<int64_t>(iv.cpu_util * iv.dt_s * 1e9));
      }
      w.delta.Accumulate(d);
    }
  }
  return out;
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
