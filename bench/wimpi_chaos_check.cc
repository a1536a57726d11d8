// Validates the chaos-soak artifact written by bench_chaos --json: the CI
// gate that makes the fine-grained recovery guarantees executable. Checks
// that the sweep was big enough (seed floors per scale factor), that every
// scenario produced the bit-identical answer (zero checksum mismatches),
// that the sweep actually exercised the machinery it claims to cover
// (steals, checkpoints, recovered morsels, joins, and leaves all nonzero),
// and that fine-grained recovery strictly dominates whole-partition retry
// on the modeled latency tail (p95/p99/max over the paired scenarios).
// Exits nonzero with a message on the first violation.
#include <cstdio>
#include <string>

#include "artifact.h"
#include "common/cli.h"

namespace {

using wimpi::bench::RunArtifact;

// Seed floors per scale factor: the sweep sizes CI runs (bench_chaos
// --seeds 200 --sf10-seeds 16).
constexpr double kMinSeeds = 200;
constexpr double kMinSf10Seeds = 16;

bool Fail(const std::string& msg) {
  std::fprintf(stderr, "[chaos-check] FAIL: %s\n", msg.c_str());
  return false;
}

// Fetches series/metric or fails loudly; chaos artifacts must be complete.
bool Get(const RunArtifact& a, const std::string& series,
         const std::string& metric, double* out) {
  const auto s = a.rows.find(series);
  if (s == a.rows.end()) return Fail("missing series '" + series + "'");
  const auto m = s->second.find(metric);
  if (m == s->second.end()) {
    return Fail("series '" + series + "' misses metric '" + metric + "'");
  }
  *out = m->second;
  return true;
}

bool CheckSweep(const RunArtifact& a, const std::string& series,
                double min_seeds) {
  double v = 0;
  if (!Get(a, series, "seeds", &v)) return false;
  if (v < min_seeds) {
    return Fail(series + ": only " + std::to_string(static_cast<long>(v)) +
                " seeds (need >= " +
                std::to_string(static_cast<long>(min_seeds)) + ")");
  }
  const double seeds = v;
  if (!Get(a, series, "checksum_mismatches", &v)) return false;
  if (v != 0) {
    return Fail(series + ": " + std::to_string(static_cast<long>(v)) +
                " checksum mismatch(es) — answers are not bit-identical");
  }
  // The sweep must exercise every recovery mechanism, or the "200 green
  // seeds" claim is hollow: a regression that silently disables stealing
  // (or checkpointing, or membership changes) would still pass checksums.
  for (const char* counter : {"steals", "stolen_morsels", "checkpoints",
                              "recovered_morsels", "joins", "leaves"}) {
    if (!Get(a, series, counter, &v)) return false;
    if (v <= 0) {
      return Fail(series + ": counter '" + std::string(counter) +
                  "' is zero — the sweep never exercised it");
    }
  }
  std::fprintf(stderr, "[chaos-check] %s OK: %ld seeds, all mechanisms hit\n",
               series.c_str(), static_cast<long>(seeds));
  return true;
}

bool CheckDominance(const RunArtifact& a) {
  // The recovery series is the point of the whole subsystem: at the tail,
  // re-executing only unacknowledged morsels (plus stealing from
  // stragglers) must beat re-running whole partitions. Strict inequality
  // at p95 and above; the median may tie (mild faults recover cheaply
  // either way).
  for (const char* p : {"p95", "p99", "max"}) {
    double fine = 0, retry = 0;
    if (!Get(a, "recovery", std::string("fine_") + p + "_s", &fine) ||
        !Get(a, "recovery", std::string("retry_") + p + "_s", &retry)) {
      return false;
    }
    if (!(fine < retry)) {
      return Fail(std::string("recovery: fine_") + p + "_s (" +
                  std::to_string(fine) + ") does not beat retry_" + p +
                  "_s (" + std::to_string(retry) + ")");
    }
    std::fprintf(stderr, "[chaos-check] recovery %s: fine %.4fs < retry %.4fs\n",
                 p, fine, retry);
  }
  double fine = 0, retry = 0;
  if (!Get(a, "recovery", "fine_p50_s", &fine) ||
      !Get(a, "recovery", "retry_p50_s", &retry)) {
    return false;
  }
  if (fine > retry * 1.05) {
    return Fail("recovery: fine-grained median is more than 5% worse than "
                "retry (" + std::to_string(fine) + " vs " +
                std::to_string(retry) + ") — checkpoint overhead regressed");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const wimpi::CommandLine cli(argc, argv);
  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: wimpi_chaos_check <BENCH_chaos.json>\n");
    return 2;
  }

  RunArtifact a;
  std::string error;
  if (!wimpi::bench::ReadArtifact(cli.positional()[0], &a, &error)) {
    return Fail(error) ? 0 : 1;
  }
  if (!CheckSweep(a, "chaos", kMinSeeds)) return 1;
  if (!CheckSweep(a, "chaos_sf10", kMinSf10Seeds)) return 1;
  if (!CheckDominance(a)) return 1;
  std::fprintf(stderr, "[chaos-check] OK\n");
  return 0;
}
