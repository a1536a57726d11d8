#include "obs/timeline/sampler.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "storage/memory_tracker.h"

namespace wimpi::obs::timeline {

// ---------------------------------------------------------------------------
// Lane activity registry
// ---------------------------------------------------------------------------

namespace {
std::array<LaneActivity, kMaxLanes> g_lanes;
}  // namespace

LaneActivity& LaneSlot(int lane) {
  return g_lanes[static_cast<size_t>(lane < 0 ? 0 : lane) % kMaxLanes];
}

std::atomic<bool> TimelineSampler::g_enabled{false};

bool SamplerEnabled() {
  return TimelineSampler::Global().enabled();
}

ScopedPipelineActivity::ScopedPipelineActivity(int lane, const char* label,
                                               uint64_t query_id) {
  if (!SamplerEnabled()) return;
  lane_ = lane < 0 ? 0 : lane;
  LaneActivity& slot = LaneSlot(lane_);
  slot.query_id.store(query_id, std::memory_order_relaxed);
  slot.label.store(label, std::memory_order_relaxed);
  // Odd seq = active. Release so a sampler that observed the new seq also
  // observes the label/query stores above.
  slot.seq.fetch_add(1, std::memory_order_release);
}

ScopedPipelineActivity::~ScopedPipelineActivity() {
  if (lane_ < 0) return;
  LaneActivity& slot = LaneSlot(lane_);
  slot.label.store(nullptr, std::memory_order_relaxed);
  slot.seq.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

TimelineSampler& TimelineSampler::Global() {
  static TimelineSampler* sampler = new TimelineSampler;
  return *sampler;
}

bool TimelineSampler::Start(SamplerOptions opts) {
  if (enabled()) {
    note_ = "sampler already running";
    return false;
  }
  if (PerfDisabledByEnv()) {
    // The env var that silences perf counters silences the sampler too
    // (README env-var table): CI stages that pin determinism with
    // WIMPI_PERF_DISABLE=1 must not grow a background thread.
    note_ = "disabled via WIMPI_PERF_DISABLE=1";
    return false;
  }
  opts_ = opts;
  opts_.period_us = std::max<int64_t>(opts_.period_us, 50);
  opts_.max_samples = std::max<size_t>(opts_.max_samples, 2);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
    stop_ = false;
  }
  ticks_.store(0, std::memory_order_relaxed);
  // Counters are opened on the caller's thread (inherit=1): coverage
  // follows the same contract as ScopedProfiling — workers spawned after
  // this call aggregate, pre-existing ones do not.
  perf_open_ = opts_.perf && perf_.Open();
  note_ = perf_open_ ? ""
                     : (opts_.perf ? perf_.error() : "perf disabled by options");
  // Queue depth comes from the pool's own gauge, which only moves while
  // the pool metric hooks are armed.
  prev_pool_metrics_ = PoolMetricsEnabled();
  SetPoolMetricsEnabled(true);
  g_enabled.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void TimelineSampler::Stop() {
  if (!thread_.joinable()) return;
  g_enabled.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    stop_cv_.notify_all();
  }
  thread_.join();
  perf_.Close();
  perf_open_ = false;
  SetPoolMetricsEnabled(prev_pool_metrics_);
}

void TimelineSampler::TakeSample(int64_t now_us) {
  TimelineSample s;
  s.ts_us = now_us;
  if (perf_open_) s.perf = perf_.Read();
  if (opts_.memory != nullptr) {
    s.mem_used_bytes = opts_.memory->used();
    s.mem_peak_bytes = opts_.memory->peak();
  }
  s.queue_depth = MetricsRegistry::Global().gauge("pool.queue_depth").Value();
  for (int lane = 0; lane < kMaxLanes && s.num_active < TimelineSample::kMaxActive;
       ++lane) {
    LaneActivity& slot = g_lanes[static_cast<size_t>(lane)];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if ((seq & 1) == 0) continue;  // even = idle
    const char* label = slot.label.load(std::memory_order_relaxed);
    const uint64_t query = slot.query_id.load(std::memory_order_relaxed);
    if (label == nullptr) continue;  // torn: start/end mid-read
    if (slot.seq.load(std::memory_order_acquire) != seq) continue;
    ActivitySample& a = s.active[static_cast<size_t>(s.num_active++)];
    a.lane = lane;
    a.query_id = query;
    a.seq = seq;
    a.label = label;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(s);
  while (ring_.size() > opts_.max_samples) ring_.pop_front();
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

void TimelineSampler::Loop() {
  // One tick immediately so even sub-period windows see a sample boundary.
  TakeSample(NowMicros());
  int64_t next_us = NowMicros() + opts_.period_us;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stop_) return;
    stop_cv_.wait_until(lock,
                        std::chrono::steady_clock::time_point(
                            std::chrono::microseconds(next_us)));
    if (stop_) return;
    const int64_t now = NowMicros();
    if (now < next_us) continue;  // spurious wakeup
    lock.unlock();
    TakeSample(now);
    lock.lock();
    next_us = now + opts_.period_us;
  }
}

std::vector<TimelineSample> TimelineSampler::SnapshotRange(
    int64_t since_us, int64_t until_us) const {
  std::vector<TimelineSample> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const TimelineSample& s : ring_) {
    if (s.ts_us >= since_us && s.ts_us < until_us) out.push_back(s);
  }
  return out;
}

QueryTimeline TimelineSampler::Slice(int64_t start_us, int64_t end_us) const {
  QueryTimeline t;
  t.start_us = start_us;
  t.end_us = end_us;
  t.samples = SnapshotRange(start_us, end_us == 0 ? INT64_MAX : end_us);
  return t;
}

}  // namespace wimpi::obs::timeline
