#ifndef WIMPI_OBS_METRICS_H_
#define WIMPI_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace wimpi::obs {

// Monotonically increasing count (events, accumulated microseconds, ...).
// Add/Value are lock-free; writers from any thread.
class Counter {
 public:
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Last-written value (queue depth, active workers, ...).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

// Fixed-bucket histogram. Bucket upper bounds are set at construction and
// never change, so Record() is a binary search plus one relaxed increment —
// safe from any number of threads. Percentiles are estimated by linear
// interpolation inside the bucket that crosses the requested rank, which is
// exact enough for latency reporting (p50/p95/p99) at the default
// exponential bucket layout.
class Histogram {
 public:
  // `bounds` are ascending inclusive upper bounds; values above the last
  // bound land in a catch-all overflow bucket.
  explicit Histogram(std::vector<double> bounds);

  // Default bounds for microsecond-scale latencies: 1us .. 60s, roughly
  // four buckets per decade.
  static std::vector<double> DefaultLatencyBoundsUs();

  void Record(double v);

  int64_t Count() const;
  double Sum() const;
  double Mean() const { return Count() == 0 ? 0 : Sum() / Count(); }
  double Min() const;
  double Max() const;
  // p in (0, 1], e.g. 0.5 / 0.95 / 0.99. Returns 0 on an empty histogram.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<int64_t> BucketCounts() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::deque<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1 (overflow)
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{0};
  std::atomic<double> max_{0};
};

// Point-in-time copy of one histogram's full state, for exporters that
// need buckets (Prometheus exposition) rather than just scalars.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<int64_t> bucket_counts;  // bounds.size() + 1 (overflow)
  int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
};

// Point-in-time copy of every registered metric.
struct RegistrySnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  // Info metrics: constant gauges of value 1 whose labels carry identity
  // (e.g. host.info{cpu="...",threads="..."}), Prometheus convention for
  // distinguishing series scraped from different hosts.
  std::map<std::string, std::map<std::string, std::string>> infos;
};

// Process-wide named metrics. Lookup takes a mutex; the returned references
// are stable for the registry's lifetime (node-based storage), so hot paths
// resolve a metric once and then update it lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // Histogram bounds are fixed by the first call for a given name.
  Histogram& histogram(
      const std::string& name,
      const std::vector<double>& bounds = Histogram::DefaultLatencyBoundsUs());

  // Registers (or replaces) an info metric: exported as a gauge of
  // constant value 1 whose labels carry identity strings, e.g.
  // SetInfo("host.info", {{"cpu", "..."}, {"threads", "4"}}).
  void SetInfo(const std::string& name,
               std::map<std::string, std::string> labels);

  // Zeroes every metric (keeps registrations). Test helper.
  void Reset();

  // Same as Reset(), under the name tests should use between cases so
  // metric accumulation from earlier cases cannot leak into assertions.
  // Entries are zeroed, never erased: pool workers cache raw metric
  // pointers that must stay valid for the registry's lifetime.
  void ResetForTesting() { Reset(); }

  // Sorted "name value" / "name count=.. mean=.. p50=.. p95=.. p99=.." text.
  std::string FormatText() const;

  // Snapshot of scalar values for programmatic checks.
  std::map<std::string, double> ScalarSnapshot() const;

  // Full snapshot including histogram buckets, for exposition writers.
  RegistrySnapshot SnapshotAll() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::map<std::string, std::string>> infos_;
};

// Global switch for the ThreadPool instrumentation hooks.
// Off by default: pool hot paths then skip every clock read. Flipped by
// ScopedProfiling (ProfileOptions.pool_metrics) or directly by tools.
bool PoolMetricsEnabled();
void SetPoolMetricsEnabled(bool enabled);

}  // namespace wimpi::obs

#endif  // WIMPI_OBS_METRICS_H_
