// wimpi_stats_check: CI validator for the plan-quality artifact written by
// bench_stats_qerror --json. It checks the structural invariants that must
// hold for ANY valid run: the cardinality series covers all 22 queries,
// every query estimated at least one operator, Q-errors are >= 1 with
// geomean <= max, the answer-mismatch count is zero, every sketch NDV
// relative error is under kMaxNdvErr (target: < 3% at the default
// 2^14-register HLL; the bound leaves headroom), and every quantile rank
// error is under kMaxRankErr. Drift against the committed baseline is
// wimpi_bench_compare's job, like every other artifact.
//
//   ./bench/wimpi_stats_check artifact.json
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "artifact.h"
#include "common/cli.h"

namespace {

constexpr double kMaxNdvErr = 0.05;
// One equi-depth bucket of 64 holds ~1.6% of the mass; allow a few buckets
// of slack for sampled builds and duplicate-heavy columns.
constexpr double kMaxRankErr = 0.08;

struct Checker {
  int failures = 0;

  void Fail(const std::string& msg) {
    std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
    ++failures;
  }
  void Check(bool ok, const std::string& msg) {
    if (!ok) Fail(msg);
  }
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const wimpi::CommandLine cli(argc, argv);
  const std::string artifact_path =
      cli.positional().empty() ? "" : cli.positional().front();
  if (artifact_path.empty()) {
    std::fprintf(stderr, "usage: wimpi_stats_check <artifact.json>\n");
    return 2;
  }

  wimpi::bench::RunArtifact artifact;
  std::string error;
  if (!wimpi::bench::ReadArtifact(artifact_path, &artifact, &error)) {
    std::fprintf(stderr, "FAIL: cannot read %s: %s\n", artifact_path.c_str(),
                 error.c_str());
    return 1;
  }

  Checker c;
  c.Check(artifact.bench == "stats_qerror",
          "artifact bench is '" + artifact.bench + "', want 'stats_qerror'");

  // ---- cardinality series ----
  const auto card_it = artifact.rows.find("cardinality");
  if (card_it == artifact.rows.end()) {
    c.Fail("artifact has no 'cardinality' series");
  } else {
    const auto& card = card_it->second;
    auto get = [&](const std::string& metric, double* out) {
      const auto it = card.find(metric);
      if (it == card.end()) return false;
      *out = it->second;
      return true;
    };
    double mismatches = -1;
    c.Check(get("answer_mismatches", &mismatches) && mismatches == 0,
            "cardinality.answer_mismatches must be present and 0 (got " +
                Num(mismatches) + ")");
    for (int q = 1; q <= 22; ++q) {
      const std::string p = "Q" + std::to_string(q);
      double maxq = 0, geo = 0, est = 0, rec = 0;
      if (!get(p + ".qerror.max", &maxq) || !get(p + ".qerror.geomean", &geo) ||
          !get(p + ".ops.estimated", &est) || !get(p + ".ops.recorded", &rec)) {
        c.Fail("cardinality series is missing metrics for " + p);
        continue;
      }
      c.Check(est >= 1, p + ": no operators were estimated");
      c.Check(rec >= est,
              p + ": recorded ops (" + Num(rec) + ") < estimated (" +
                  Num(est) + ")");
      c.Check(maxq >= 1 && std::isfinite(maxq),
              p + ": qerror.max " + Num(maxq) + " is not a finite value >= 1");
      c.Check(geo >= 1 && geo <= maxq + 1e-9,
              p + ": qerror.geomean " + Num(geo) +
                  " outside [1, max=" + Num(maxq) + "]");
    }
  }

  // ---- sketch series ----
  const auto sketch_it = artifact.rows.find("sketch");
  if (sketch_it == artifact.rows.end()) {
    c.Fail("artifact has no 'sketch' series");
  } else {
    int ndv_metrics = 0;
    for (const auto& [metric, value] : sketch_it->second) {
      if (metric.find("ndv_rel_err") != std::string::npos) {
        ++ndv_metrics;
        c.Check(value <= kMaxNdvErr,
                "sketch." + metric + " = " + Num(value) +
                    " exceeds NDV-error bound " + Num(kMaxNdvErr));
      }
      if (metric.find("quantile_rank_err") != std::string::npos) {
        c.Check(value <= kMaxRankErr,
                "sketch." + metric + " = " + Num(value) +
                    " exceeds rank-error bound " + Num(kMaxRankErr));
      }
    }
    c.Check(ndv_metrics > 0, "sketch series has no ndv_rel_err metrics");
  }

  if (c.failures > 0) {
    std::fprintf(stderr, "wimpi_stats_check: %d check(s) failed\n",
                 c.failures);
    return 1;
  }
  std::printf("wimpi_stats_check: %s OK\n", artifact_path.c_str());
  return 0;
}
