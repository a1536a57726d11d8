#ifndef WIMPI_OBS_TIMELINE_ROOFLINE_H_
#define WIMPI_OBS_TIMELINE_ROOFLINE_H_

#include <string>
#include <vector>

#include "exec/counters.h"
#include "hw/cost_model.h"
#include "hw/profile.h"
#include "obs/profiler.h"
#include "obs/timeline/timeline.h"

namespace wimpi::obs::timeline {

// Live roofline classification of a sampled timeline (ISSUE #10): each
// operator of a profiled query is labelled bandwidth-bound vs
// compute-bound from the counters sampled over its own window, and
// cross-checked against what hw::CostModel predicts for that operator's
// own OpStats — the time-resolved generalization of
// obs::CounterResiduals. Which operator ran when comes from the profile
// tree (obs::QueryProfile), which records every operator's exact window.
// Lives in wimpi_obs_report (needs wimpi_hw), like the residual reports.

enum class BoundClass { kUnknown, kBandwidth, kCompute };
const char* BoundClassName(BoundClass c);
BoundClass BoundClassFromName(const std::string& name);

// The measured-side roofline of one host/profile at one thread count.
struct RooflineSpec {
  std::string profile;          // profile name, for reports
  double peak_gbps = 0;         // sysbench-style all-core peak
  double achievable_gbps = 0;   // x stream efficiency (mixed traffic)
  double saturation_gbps = 0;   // achievable x profile.bw_saturation_frac
  double peak_instr_per_sec = 0;  // threads-scaled interpreter instr rate
  // Ridge point in instructions/byte: intervals below it cannot be
  // compute-bound even at peak IPC.
  double ridge_instr_per_byte = 0;

  static RooflineSpec FromProfile(const hw::HardwareProfile& hw, int threads,
                                  const hw::CostModel& model = hw::CostModel());
};

// Classifies one interval's measured signals against the roofline:
// bandwidth-bound when DRAM traffic runs at or above the saturation
// threshold, or when arithmetic intensity sits below the ridge; compute-
// bound when clearly above the ridge with unsaturated bandwidth; kUnknown
// when the counters needed are unavailable (degraded hosts).
BoundClass ClassifyInterval(const TimelineInterval& iv,
                            const RooflineSpec& spec);

// One profiled operator's roofline verdict, measured and modeled side by
// side.
struct OperatorRoofline {
  std::string name;    // profile node name ("Filter", "HashAggregate")
  double seconds = 0;  // the node's wall time
  double gbps = -1;
  double ipc = -1;
  BoundClass measured = BoundClass::kUnknown;
  BoundClass modeled = BoundClass::kUnknown;
};

struct RooflineSummary {
  std::string profile;
  double total_s = 0;                // sampled span covered by intervals
  double time_at_saturation_s = 0;   // intervals with gbps >= saturation
  double saturation_fraction = 0;    // time_at_saturation_s / total_s
  double peak_gbps = -1;             // best interval observed
  double mean_gbps = -1;
  double mean_ipc = -1;
  std::vector<OperatorRoofline> operators;
  // Cross-check tallies over operators whose measured class is known.
  int agree = 0;
  int disagree = 0;
  double AgreementFraction() const {
    return agree + disagree > 0
               ? static_cast<double>(agree) / (agree + disagree)
               : -1;
  }

  std::string Format() const;
};

// Summarizes one profiled query on `hw` at `threads`:
//   * query-level figures (saturation, peak/mean GB/s, IPC) from the
//     timeline's interval series;
//   * one OperatorRoofline per profile node that recorded OpStats, in
//     pre-order: measured over the node's own window [start_us, start_us +
//     wall) through QueryTimeline::Over, modeled from the node's own
//     OpStats through CostModel::OpRoofline — bandwidth when at least half
//     of its modeled seconds sit under the bandwidth roof, else compute.
// `timeline` and `profile` must come from the same run.
RooflineSummary BuildRooflineSummary(const QueryTimeline& timeline,
                                     const QueryProfile& profile,
                                     const hw::CostModel& model,
                                     const hw::HardwareProfile& hw,
                                     int threads);

// Query-level modeled class on `hw`: bandwidth iff the seconds-weighted
// bandwidth-bound fraction of operator time exceeds one half.
BoundClass ModeledQueryBound(const hw::CostModel& model,
                             const hw::HardwareProfile& hw,
                             const exec::QueryStats& stats, int threads,
                             double* bw_fraction = nullptr);

}  // namespace wimpi::obs::timeline

#endif  // WIMPI_OBS_TIMELINE_ROOFLINE_H_
