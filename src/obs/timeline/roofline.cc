#include "obs/timeline/roofline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace wimpi::obs::timeline {

const char* BoundClassName(BoundClass c) {
  switch (c) {
    case BoundClass::kBandwidth:
      return "bandwidth";
    case BoundClass::kCompute:
      return "compute";
    default:
      return "unknown";
  }
}

BoundClass BoundClassFromName(const std::string& name) {
  if (name == "bandwidth") return BoundClass::kBandwidth;
  if (name == "compute") return BoundClass::kCompute;
  return BoundClass::kUnknown;
}

RooflineSpec RooflineSpec::FromProfile(const hw::HardwareProfile& hw,
                                       int threads,
                                       const hw::CostModel& model) {
  const double eff = model.options().stream_efficiency;
  RooflineSpec spec;
  spec.profile = hw.name;
  spec.peak_gbps = hw.mem_bw_all_gbps;
  spec.achievable_gbps = hw.AchievableBwGbps(eff);
  spec.saturation_gbps = hw.SaturationGbps(eff);
  // Interpreter-code instruction rate at this thread count. OLAP operators
  // retire a handful of instructions per abstract work unit; the absolute
  // calibration matters less than the ridge it induces being stable.
  spec.peak_instr_per_sec =
      hw.DbSingleCoreRate() * model.ComputeScale(hw, threads) *
      model.options().cycles_per_op;
  if (spec.achievable_gbps > 0) {
    spec.ridge_instr_per_byte =
        spec.peak_instr_per_sec / (spec.achievable_gbps * 1e9);
  }
  return spec;
}

namespace {

// Shared verdict from (gbps, instructions/s): saturation first, then the
// roofline position (arithmetic intensity vs the ridge).
BoundClass ClassifySignals(double gbps, double instr_per_sec,
                           const RooflineSpec& spec) {
  if (gbps < 0) return BoundClass::kUnknown;
  if (spec.saturation_gbps > 0 && gbps >= spec.saturation_gbps) {
    return BoundClass::kBandwidth;
  }
  if (instr_per_sec >= 0 && gbps > 0 && spec.ridge_instr_per_byte > 0) {
    const double intensity = instr_per_sec / (gbps * 1e9);
    return intensity < spec.ridge_instr_per_byte ? BoundClass::kBandwidth
                                                 : BoundClass::kCompute;
  }
  // Traffic measured but unsaturated with no instruction counter: the
  // memory wall is demonstrably not the limit.
  return BoundClass::kCompute;
}

}  // namespace

BoundClass ClassifyInterval(const TimelineInterval& iv,
                            const RooflineSpec& spec) {
  return ClassifySignals(iv.gbps, iv.instr_per_sec, spec);
}

namespace {

// Modeled class of one operator invocation from its own OpStats: bandwidth
// when at least half of its modeled seconds sit under the bandwidth roof.
BoundClass ModeledOperatorBound(const hw::CostModel& model,
                                const hw::HardwareProfile& hw,
                                const std::vector<exec::OpStats>& ops,
                                int threads) {
  double total_s = 0;
  double bandwidth_s = 0;
  for (const exec::OpStats& op : ops) {
    const hw::CostModel::OpRoofs roofs = model.OpRoofline(hw, op, threads);
    const double sec = std::max(roofs.compute_s, roofs.seq_s) + roofs.rand_s;
    total_s += sec;
    if (roofs.BandwidthBound()) bandwidth_s += sec;
  }
  return bandwidth_s >= total_s * 0.5 ? BoundClass::kBandwidth
                                      : BoundClass::kCompute;
}

}  // namespace

RooflineSummary BuildRooflineSummary(const QueryTimeline& timeline,
                                     const QueryProfile& profile,
                                     const hw::CostModel& model,
                                     const hw::HardwareProfile& hw,
                                     int threads) {
  const RooflineSpec spec = RooflineSpec::FromProfile(hw, threads, model);
  RooflineSummary out;
  out.profile = spec.profile;
  double gbps_weight = 0;
  double gbps_sum = 0;
  double ipc_weight = 0;
  double ipc_sum = 0;
  for (const TimelineInterval& iv : timeline.Intervals()) {
    out.total_s += iv.dt_s;
    if (iv.gbps >= 0) {
      out.peak_gbps = std::max(out.peak_gbps, iv.gbps);
      gbps_sum += iv.gbps * iv.dt_s;
      gbps_weight += iv.dt_s;
      if (spec.saturation_gbps > 0 && iv.gbps >= spec.saturation_gbps) {
        out.time_at_saturation_s += iv.dt_s;
      }
    }
    if (iv.ipc >= 0) {
      ipc_sum += iv.ipc * iv.dt_s;
      ipc_weight += iv.dt_s;
    }
  }
  if (gbps_weight > 0) out.mean_gbps = gbps_sum / gbps_weight;
  if (ipc_weight > 0) out.mean_ipc = ipc_sum / ipc_weight;
  if (out.total_s > 0) {
    out.saturation_fraction = out.time_at_saturation_s / out.total_s;
  }

  // Pre-order walk: every node that recorded OpStats is one operator.
  std::vector<const ProfileNode*> stack = {&profile.root};
  while (!stack.empty()) {
    const ProfileNode* node = stack.back();
    stack.pop_back();
    for (auto it = node->children.rbegin(); it != node->children.rend();
         ++it) {
      stack.push_back(it->get());
    }
    if (node->op_stats.empty()) continue;
    const int64_t end_us =
        node->start_us + std::llround(node->wall_seconds * 1e6);
    const TimelineInterval iv = timeline.Over(node->start_us, end_us);
    OperatorRoofline op;
    op.name = node->name;
    op.seconds = node->wall_seconds;
    op.gbps = iv.gbps;
    op.ipc = iv.ipc;
    op.measured = ClassifyInterval(iv, spec);
    op.modeled = ModeledOperatorBound(model, hw, node->op_stats, threads);
    if (op.measured != BoundClass::kUnknown) {
      ++(op.measured == op.modeled ? out.agree : out.disagree);
    }
    out.operators.push_back(std::move(op));
  }
  return out;
}

BoundClass ModeledQueryBound(const hw::CostModel& model,
                             const hw::HardwareProfile& hw,
                             const exec::QueryStats& stats, int threads,
                             double* bw_fraction) {
  const double frac = model.BandwidthBoundFraction(hw, stats, threads);
  if (bw_fraction != nullptr) *bw_fraction = frac;
  if (stats.ops.empty()) return BoundClass::kUnknown;
  return frac > 0.5 ? BoundClass::kBandwidth : BoundClass::kCompute;
}

std::string RooflineSummary::Format() const {
  char buf[160];
  std::string out = "--- roofline timeline (" + profile + ") ---\n";
  std::snprintf(buf, sizeof(buf),
                "  sampled %.3fs, %.1f%% at bandwidth saturation",
                total_s, saturation_fraction * 100);
  out += buf;
  if (peak_gbps >= 0) {
    std::snprintf(buf, sizeof(buf), ", peak %.2f GB/s, mean %.2f GB/s",
                  peak_gbps, mean_gbps);
    out += buf;
  }
  if (mean_ipc >= 0) {
    std::snprintf(buf, sizeof(buf), ", IPC %.2f", mean_ipc);
    out += buf;
  }
  out += '\n';
  for (const OperatorRoofline& op : operators) {
    std::snprintf(buf, sizeof(buf),
                  "  %-18s %8.3fs  measured=%-9s modeled=%-9s",
                  op.name.c_str(), op.seconds, BoundClassName(op.measured),
                  BoundClassName(op.modeled));
    out += buf;
    if (op.gbps >= 0) {
      std::snprintf(buf, sizeof(buf), "  %6.2f GB/s", op.gbps);
      out += buf;
    }
    out += '\n';
  }
  if (agree + disagree > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  measured vs modeled: %d agree, %d disagree (%.0f%%)\n",
                  agree, disagree, AgreementFraction() * 100);
    out += buf;
  }
  return out;
}

}  // namespace wimpi::obs::timeline
