#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace wimpi::perf {

namespace {

constexpr size_t kTableWords = size_t{1} << 20;
constexpr size_t kStreamWords = size_t{4} << 20;
constexpr int kUpdates = 400000;
// Each timing is the median of this many runs of the kernel, so that one
// interrupted run does not set a lap's factor.
constexpr int kRuns = 3;

}  // namespace

HostSpeed::HostSpeed() : table_(kTableWords), stream_(kStreamWords, 1) {}

double HostSpeed::Time() {
  std::vector<double> runs;
  for (int i = 0; i < kRuns; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t x = state_;
    for (int u = 0; u < kUpdates; ++u) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table_[x & (kTableWords - 1)] += x;
    }
    state_ = x;
    table_[0] += std::accumulate(stream_.begin(), stream_.end(), uint64_t{0});
    runs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  std::sort(runs.begin(), runs.end());
  samples_.push_back(runs[kRuns / 2]);
  return samples_.back();
}

void HostSpeed::Mark() { mark_ = Time(); }

double HostSpeed::Scale() {
  const double now = Time();
  const double factor = 2 * kNominalSeconds / (mark_ + now);
  mark_ = now;
  return factor;
}

double HostSpeed::MedianSeconds() const {
  std::vector<double> v = samples_;
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

}  // namespace wimpi::perf
