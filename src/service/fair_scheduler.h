#ifndef WIMPI_SERVICE_FAIR_SCHEDULER_H_
#define WIMPI_SERVICE_FAIR_SCHEDULER_H_

// The fair scheduler lives in parallel/fair_scheduler.h (it is the engine's
// only morsel dispatcher); these names keep existing service:: callers
// compiling.

#include "parallel/fair_scheduler.h"

namespace wimpi::service {

using parallel::FairPipelineScheduler;
using parallel::LaneScheduler;
using parallel::LaneUsage;

}  // namespace wimpi::service

#endif  // WIMPI_SERVICE_FAIR_SCHEDULER_H_
