#ifndef WIMPI_BENCH_PERF_HOST_SPEED_H_
#define WIMPI_BENCH_PERF_HOST_SPEED_H_

#include <cstdint>
#include <vector>

namespace wimpi::perf {

// Follows the speed of the host the benchmark runs on, so that latencies
// can be reported at one reference speed. On a shared virtual machine the
// speed of the same code drifts by 20-60% over seconds to minutes, with
// the load of other tenants; the drift moves single-threaded set-up and
// multi-threaded queries alike. A fixed reference kernel, owned by the
// benchmark and calling no engine code, is timed with everything else idle
// between laps; each lap's latencies are multiplied by kNominalSeconds over
// the mean of the reference times before and after the lap.
class HostSpeed {
 public:
  // The reference kernel's time on the host README.md describes, in a
  // quiet period: scaled latencies read as seconds on that host.
  static constexpr double kNominalSeconds = 0.0045;

  HostSpeed();

  // Times the reference kernel; the next Scale() covers the interval from
  // here.
  void Mark();
  // Times the reference kernel and returns the factor that scales what was
  // measured since the last Mark() or Scale() to the nominal speed.
  double Scale();

  // Median reference time over every Mark() and Scale().
  double MedianSeconds() const;

 private:
  double Time();

  // 8 MiB of random updates (beyond the private caches) and one pass over
  // 32 MiB: the memory mix of a hash join or aggregation plus a scan.
  std::vector<uint64_t> table_;
  std::vector<uint64_t> stream_;
  uint64_t state_ = 88172645463325252ull;
  double mark_ = 0;
  std::vector<double> samples_;
};

}  // namespace wimpi::perf

#endif  // WIMPI_BENCH_PERF_HOST_SPEED_H_
