#include "parallel/pipeline.h"

#include <string>

#include "parallel/fair_scheduler.h"

namespace wimpi::parallel {

void RunPipelineMorsel(const std::function<void(const Morsel&)>& body,
                       const Morsel& m, const char* label) {
  try {
    body(m);
  } catch (const TaskError&) {
    throw;
  } catch (const std::exception& e) {
    throw TaskError("[op " + std::string(label) + " morsel " +
                    std::to_string(m.index) + " rows " +
                    std::to_string(m.begin) + ".." + std::to_string(m.end) +
                    "] " + e.what());
  } catch (...) {
    throw TaskError("[op " + std::string(label) + " morsel " +
                    std::to_string(m.index) + "] unknown exception");
  }
}

PipelineScheduler& PipelineScheduler::Default() {
  // One permanently open priority-1 lane on a process-wide fair scheduler
  // over the global pool. Its lane id is 0 and its flight id 0 (the
  // single-query path). Leaked, like
  // TaskScheduler::Global(), so it is never destroyed while workers run.
  static LaneScheduler* lane = [] {
    auto* fair = new FairPipelineScheduler(&TaskScheduler::Global().pool());
    fair->next_lane_id_ = 0;
    return new LaneScheduler(fair, fair->OpenLane(1.0, new CancellationToken));
  }();
  return *lane;
}

}  // namespace wimpi::parallel
