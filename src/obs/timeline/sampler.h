#ifndef WIMPI_OBS_TIMELINE_SAMPLER_H_
#define WIMPI_OBS_TIMELINE_SAMPLER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/perf_counters.h"
#include "obs/timeline/timeline.h"

namespace wimpi::storage {
class MemoryTracker;
}  // namespace wimpi::storage

namespace wimpi::obs::timeline {

// ---------------------------------------------------------------------------
// Lane activity registry
//
// Schedulers publish "lane L is running pipeline <label> of query Q" into a
// fixed array of atomic slots; the sampler thread reads them at each tick.
// Publishing is the engine-side cost of the whole subsystem, so it follows
// the obs ground rule: one relaxed atomic load when the sampler is off,
// three relaxed stores per *pipeline* (not per morsel) when it is on.
// ---------------------------------------------------------------------------

inline constexpr int kMaxLanes = 64;

struct LaneActivity {
  // Bumped odd at pipeline start and even at end (seqlock flavor): the
  // sampler pairs (seq, label, query) and discards torn half-open reads.
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> label{nullptr};  // string literal; null = idle
  std::atomic<uint64_t> query_id{0};
};

// Slot for a lane id (lanes beyond kMaxLanes share slots modulo; sampling
// stays correct-enough — attribution, not accounting).
LaneActivity& LaneSlot(int lane);

// True while a TimelineSampler is running (one relaxed load).
bool SamplerEnabled();

// RAII activity mark published by PipelineScheduler implementations around
// one pipeline's drain. No-op (and clock-free) while the sampler is off.
class ScopedPipelineActivity {
 public:
  ScopedPipelineActivity(int lane, const char* label, uint64_t query_id);
  ~ScopedPipelineActivity();

  ScopedPipelineActivity(const ScopedPipelineActivity&) = delete;
  ScopedPipelineActivity& operator=(const ScopedPipelineActivity&) = delete;

 private:
  int lane_ = -1;  // -1 = sampler was off at construction
};

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

struct SamplerOptions {
  // Tick period; the default 1 ms gives ~1k samples/s of ~150 B each.
  int64_t period_us = 1000;
  // Ring capacity: oldest samples fall off beyond this (default ~67 s of
  // history at the default period, bounded memory like the flight rings).
  size_t max_samples = 1 << 16;
  // Memory footprint source sampled into mem_used/mem_peak; typically the
  // admission controller's tracker. Null = footprint reads 0.
  const storage::MemoryTracker* memory = nullptr;
  // Attach perf counters (cycles/instructions/LLC/task-clock). Degrades
  // per event exactly like PerfCounters::Open.
  bool perf = true;
};

// Process-wide background sampler (one instance, like FlightRecorder).
//
// Start() opens the perf-counter group on the *calling* thread (inherit=1:
// workers spawned later are aggregated, pre-existing ones are not — the
// same coverage contract as ScopedProfiling) and launches the sampler
// thread; every tick appends one TimelineSample to a bounded ring. The
// engine never blocks on the sampler: hot paths only see SamplerEnabled()
// and the activity slots, and the ring mutex is contended only by the
// sampler thread itself and slice readers.
//
// WIMPI_PERF_DISABLE=1 forces Start() to refuse entirely (not just the
// counters): deterministic CI runs stay sampler-free. On hosts where
// perf_event_open cannot count anything the sampler still runs — samples
// then carry timestamps, memory, queue depth and lane activity, and every
// derived rate reads -1 (graceful degradation, tested).
class TimelineSampler {
 public:
  static TimelineSampler& Global();

  // False (and running() stays false) when already running or disabled via
  // WIMPI_PERF_DISABLE=1; note() explains.
  bool Start(SamplerOptions opts = {});
  void Stop();

  bool enabled() const { return g_enabled.load(std::memory_order_relaxed); }
  // Why the last Start() refused, or why counters are degraded ("" = fully
  // armed).
  const std::string& note() const { return note_; }
  const SamplerOptions& options() const { return opts_; }

  // Copies the samples with ts_us in [since_us, until_us).
  std::vector<TimelineSample> SnapshotRange(int64_t since_us,
                                            int64_t until_us) const;

  // Timeline slice for one query/window (start/end bounds filled in).
  QueryTimeline Slice(int64_t start_us, int64_t end_us) const;

  // Total ticks taken since Start (test/diagnostic).
  int64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

 private:
  TimelineSampler() = default;
  void Loop();
  void TakeSample(int64_t now_us);

  static std::atomic<bool> g_enabled;

  SamplerOptions opts_;
  std::string note_;
  PerfCounters perf_;
  bool perf_open_ = false;
  bool prev_pool_metrics_ = false;
  std::thread thread_;
  std::atomic<int64_t> ticks_{0};

  mutable std::mutex mu_;          // guards ring_ + stop_ handshake
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::deque<TimelineSample> ring_;
};

}  // namespace wimpi::obs::timeline

#endif  // WIMPI_OBS_TIMELINE_SAMPLER_H_
