#include "parallel/task_scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace wimpi::parallel {

std::vector<Morsel> SplitMorsels(int64_t total, int64_t morsel_rows) {
  WIMPI_CHECK(morsel_rows > 0);
  std::vector<Morsel> morsels;
  if (total <= 0) return morsels;
  morsels.reserve(static_cast<size_t>((total + morsel_rows - 1) / morsel_rows));
  for (int64_t begin = 0; begin < total; begin += morsel_rows) {
    Morsel m;
    m.index = static_cast<int>(morsels.size());
    m.begin = begin;
    m.end = std::min(total, begin + morsel_rows);
    morsels.push_back(m);
  }
  return morsels;
}

TaskScheduler& TaskScheduler::Global() {
  static TaskScheduler* scheduler = new TaskScheduler(0);
  return *scheduler;
}

}  // namespace wimpi::parallel
