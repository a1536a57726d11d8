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

// True while a TimelineSampler is running (one relaxed load).
bool SamplerEnabled();

struct SamplerOptions {
  // Tick period; the default 1 ms gives ~1k samples/s of ~80 B each.
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
// engine publishes nothing for it: the sampler reads counters, the memory
// tracker and the pool's queue-depth gauge (which the pool keeps live on
// every push and pop), and the ring mutex is contended only by the sampler
// thread itself and slice readers.
//
// WIMPI_PERF_DISABLE=1 forces Start() to refuse entirely (not just the
// counters): deterministic CI runs stay sampler-free. On hosts where
// perf_event_open cannot count anything the sampler still runs — samples
// then carry timestamps, memory and queue depth, and every derived rate
// reads -1 (graceful degradation, tested).
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
  std::thread thread_;
  std::atomic<int64_t> ticks_{0};

  mutable std::mutex mu_;          // guards ring_ + stop_ handshake
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::deque<TimelineSample> ring_;
};

}  // namespace wimpi::obs::timeline

#endif  // WIMPI_OBS_TIMELINE_SAMPLER_H_
