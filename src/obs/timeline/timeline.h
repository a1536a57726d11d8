#ifndef WIMPI_OBS_TIMELINE_TIMELINE_H_
#define WIMPI_OBS_TIMELINE_TIMELINE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace wimpi::obs::timeline {

// Time-resolved observability (ISSUE #10): while queries run, the
// TimelineSampler (sampler.h) periodically snapshots the physical state of
// the node — perf-counter totals, memory footprint, pool queue depth, and
// which pipeline each scheduler lane is executing — into TimelineSample
// records. A QueryTimeline is a slice of those records; consecutive samples
// difference into TimelineInterval derived signals (effective DRAM GB/s,
// IPC, CPU utilization), the time-resolved generalization of the
// whole-query obs::CounterResiduals. The roofline classification of those
// intervals lives in roofline.h (wimpi_obs_report: it needs wimpi_hw).

// One scheduler lane observed mid-pipeline. `label` is the operator-scope
// string literal the driver published (never freed, safe to keep); `seq`
// distinguishes back-to-back pipelines with the same label.
struct ActivitySample {
  int lane = -1;
  uint64_t query_id = 0;
  uint64_t seq = 0;
  const char* label = nullptr;
};

// One sampler tick. Perf counts are cumulative since sampler start (the
// sampler differences them per interval); -1 per event = unavailable.
struct TimelineSample {
  static constexpr int kMaxActive = 4;

  int64_t ts_us = 0;  // obs::NowMicros clock
  PerfCounts perf;
  int64_t mem_used_bytes = 0;
  int64_t mem_peak_bytes = 0;
  double queue_depth = 0;  // "pool.queue_depth" gauge
  int num_active = 0;      // lanes mid-pipeline at sample time
  std::array<ActivitySample, kMaxActive> active{};
};

// Derived signals between two consecutive samples. Every rate is -1 when
// its counter inputs are unavailable (PMU hidden); the structural fields
// (timestamps, memory, queue depth, active-lane count) are always valid.
struct TimelineInterval {
  int64_t t0_us = 0;
  int64_t t1_us = 0;
  double dt_s = 0;
  double gbps = -1;          // LLC misses x 64B / dt (DRAM-side traffic)
  double ipc = -1;           // instructions / cycles over the interval
  double instr_per_sec = -1;
  double cpu_util = -1;      // busy cores: task-clock ns / wall ns
  int64_t mem_used_bytes = 0;
  double queue_depth = 0;
  int num_active = 0;  // lanes mid-pipeline at the interval's end
};

// A contiguous run of intervals during which one (lane, seq) pipeline was
// active: the unit the roofline layer classifies as bandwidth- vs
// compute-bound. Perf deltas accumulate the member intervals.
struct PipelineWindow {
  int lane = -1;
  uint64_t query_id = 0;
  uint64_t seq = 0;
  const char* label = nullptr;
  int64_t t0_us = 0;
  int64_t t1_us = 0;
  double seconds = 0;
  PerfCounts delta;  // counter movement across the window

  double Gbps() const;
  double Ipc() const;
};

// One query's (or one window's) slice of the sampled series.
struct QueryTimeline {
  int64_t start_us = 0;  // requested slice bounds, not first/last sample
  int64_t end_us = 0;
  std::vector<TimelineSample> samples;

  bool empty() const { return samples.empty(); }

  // Consecutive-sample derived signals (samples.size() - 1 entries).
  std::vector<TimelineInterval> Intervals() const;

  // Pipeline activity windows reconstructed from the per-lane samples.
  std::vector<PipelineWindow> PipelineWindows() const;

  // The one producer of timeline trace events: Chrome counter tracks ('C'
  // phase, cat "timeline", pid kTracePidHost), one event per interval and
  // series at the interval's t1. timeline.gbps / .ipc / .cpu_util appear
  // only where the rate is available (>= 0); timeline.mem_mb and
  // .queue_depth always. Samples are stamped on the obs::NowMicros clock,
  // so the tracks line up with flight and span events in the same file.
  void AppendCounterTracks(std::vector<TraceEvent>* out) const;
};

}  // namespace wimpi::obs::timeline

#endif  // WIMPI_OBS_TIMELINE_TIMELINE_H_
