// Benchmark artifact pipeline: write/read round-trip, the regression
// comparison semantics `wimpi_check compare` relies on, and the chaos and
// stats rules of `wimpi_check chaos|stats` on the committed baselines and
// on mutations of them.
#include "artifact.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"

namespace wimpi::bench {
namespace {

RunArtifact SampleArtifact() {
  RunArtifact a = MakeArtifact("table2_sf1", /*model_sf=*/1.0);
  a.rows["pi3b+"]["Q1"] = 12.5;
  a.rows["pi3b+"]["Q6"] = 1.75;
  a.rows["op-e5"]["Q1"] = 1.25;
  a.rows["op-e5"]["Q6"] = 0.2;
  a.rows["host"]["Q1.wall_seconds"] = 0.042;
  a.metrics["pool.tasks"] = 128;
  return a;
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

TEST(Artifact, MakeFillsEnvironment) {
  const RunArtifact a = MakeArtifact("smoke", 0.5);
  EXPECT_EQ(a.schema_version, kArtifactSchemaVersion);
  EXPECT_EQ(a.bench, "smoke");
  EXPECT_DOUBLE_EQ(a.model_sf, 0.5);
  EXPECT_EQ(a.unit, "seconds");
  EXPECT_FALSE(a.git_sha.empty());
  EXPECT_GE(a.host_threads, 1);
}

TEST(Artifact, WriteReadRoundTrip) {
  const RunArtifact a = SampleArtifact();
  const std::string path = TempPath("wimpi_artifact_roundtrip.json");
  ASSERT_TRUE(WriteArtifact(path, a));

  RunArtifact b;
  std::string error;
  ASSERT_TRUE(ReadArtifact(path, &b, &error)) << error;
  EXPECT_EQ(b.schema_version, a.schema_version);
  EXPECT_EQ(b.bench, a.bench);
  EXPECT_EQ(b.git_sha, a.git_sha);
  EXPECT_DOUBLE_EQ(b.model_sf, a.model_sf);
  EXPECT_EQ(b.unit, a.unit);
  EXPECT_EQ(b.hostname, a.hostname);
  EXPECT_EQ(b.host_threads, a.host_threads);
  EXPECT_EQ(b.perf_available, a.perf_available);
  EXPECT_EQ(b.rows, a.rows);
  EXPECT_EQ(b.metrics, a.metrics);
  std::remove(path.c_str());
}

TEST(Artifact, WriteReportsFullDisk) {
  // A full disk shows up only when fclose flushes the buffered artifact.
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  RunArtifact a = MakeArtifact("table2_sf1", /*model_sf=*/1.0);
  a.rows["pi3b+"]["Q1"] = 12.5;
  EXPECT_FALSE(WriteArtifact("/dev/full", a));
}

TEST(Artifact, ReadRejectsWrongSchemaVersion) {
  RunArtifact a = SampleArtifact();
  a.schema_version = kArtifactSchemaVersion + 1;
  const std::string path = TempPath("wimpi_artifact_badversion.json");
  ASSERT_TRUE(WriteArtifact(path, a));
  RunArtifact b;
  std::string error;
  EXPECT_FALSE(ReadArtifact(path, &b, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Artifact, ReadReportsMissingFile) {
  RunArtifact b;
  std::string error;
  EXPECT_FALSE(ReadArtifact(TempPath("wimpi_artifact_nonexistent.json"),
                            &b, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ArtifactCompare, SelfCompareIsClean) {
  const RunArtifact a = SampleArtifact();
  const CompareResult r = CompareArtifacts(a, a, CompareOptions{});
  EXPECT_TRUE(r.ok) << r.Format();
  EXPECT_TRUE(r.diffs.empty());
  EXPECT_TRUE(r.errors.empty());
}

TEST(ArtifactCompare, WithinToleranceIsClean) {
  const RunArtifact base = SampleArtifact();
  RunArtifact cur = base;
  cur.rows["pi3b+"]["Q1"] *= 1.01;  // inside the 2% default
  const CompareResult r = CompareArtifacts(base, cur, CompareOptions{});
  EXPECT_TRUE(r.ok) << r.Format();
}

TEST(ArtifactCompare, RegressionBeyondToleranceFails) {
  const RunArtifact base = SampleArtifact();
  RunArtifact cur = base;
  cur.rows["pi3b+"]["Q1"] *= 1.10;  // 10% slower
  const CompareResult r = CompareArtifacts(base, cur, CompareOptions{});
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.diffs.empty());
  EXPECT_TRUE(r.diffs[0].regression);
  EXPECT_EQ(r.diffs[0].series, "pi3b+");
  EXPECT_EQ(r.diffs[0].metric, "Q1");
  EXPECT_NE(r.Format().find("REGRESSION"), std::string::npos);
}

TEST(ArtifactCompare, ImprovementIsReportedButPasses) {
  const RunArtifact base = SampleArtifact();
  RunArtifact cur = base;
  cur.rows["pi3b+"]["Q1"] *= 0.80;  // 20% faster
  const CompareResult r = CompareArtifacts(base, cur, CompareOptions{});
  EXPECT_TRUE(r.ok) << r.Format();
  ASSERT_FALSE(r.diffs.empty());
  EXPECT_FALSE(r.diffs[0].regression);
}

TEST(ArtifactCompare, MissingMetricFailsUnlessAllowed) {
  const RunArtifact base = SampleArtifact();
  RunArtifact cur = base;
  cur.rows["op-e5"].erase("Q6");
  CompareOptions opts;
  const CompareResult strict = CompareArtifacts(base, cur, opts);
  EXPECT_FALSE(strict.ok);
  EXPECT_FALSE(strict.errors.empty());

  opts.fail_on_missing = false;
  const CompareResult lax = CompareArtifacts(base, cur, opts);
  EXPECT_TRUE(lax.ok) << lax.Format();
}

TEST(ArtifactCompare, MeasuredMetricsGatedOnlyByWallTol) {
  const RunArtifact base = SampleArtifact();
  RunArtifact cur = base;
  cur.rows["host"]["Q1.wall_seconds"] *= 3.0;  // huge, but host noise

  const CompareResult lax = CompareArtifacts(base, cur, CompareOptions{});
  EXPECT_TRUE(lax.ok) << lax.Format();  // wall_tol unset -> informational

  CompareOptions opts;
  opts.wall_tol = 0.5;
  const CompareResult strict = CompareArtifacts(base, cur, opts);
  EXPECT_FALSE(strict.ok);
}

// The summary note counts the measured metrics it gated (or skipped), so
// a wall-time A/B log shows what it actually compared.
TEST(ArtifactCompare, SummaryCountsMeasuredMetrics) {
  const RunArtifact base = SampleArtifact();
  auto has_note = [](const CompareResult& r, const std::string& note) {
    for (const std::string& n : r.notes) {
      if (n == note) return true;
    }
    return false;
  };
  CompareOptions opts;
  opts.wall_tol = 0.5;
  const CompareResult gated = CompareArtifacts(base, base, opts);
  EXPECT_TRUE(has_note(gated, "compared 5 metric(s), 1 measured metric(s) "
                              "gated"))
      << gated.Format();

  const CompareResult lax = CompareArtifacts(base, base, CompareOptions{});
  EXPECT_TRUE(has_note(lax, "compared 4 metric(s), 1 measured metric(s) "
                            "informational (no --wall-tol)"))
      << lax.Format();
}

TEST(ArtifactCompare, StructuralMismatchesAreErrors) {
  const RunArtifact base = SampleArtifact();
  RunArtifact cur = base;
  cur.bench = "table3_sf10";
  const CompareResult r = CompareArtifacts(base, cur, CompareOptions{});
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.errors.empty());
}

TEST(ArtifactCompare, TinyAbsoluteDifferencesIgnored) {
  RunArtifact base = SampleArtifact();
  base.rows["op-e5"]["Qz"] = 0.0;
  RunArtifact cur = base;
  cur.rows["op-e5"]["Qz"] = 5e-7;  // below abs_floor, infinite relative
  const CompareResult r = CompareArtifacts(base, cur, CompareOptions{});
  EXPECT_TRUE(r.ok) << r.Format();
}

// ---------- wimpi_check's artifact rules ----------

RunArtifact Baseline(const std::string& name) {
  RunArtifact a;
  std::string error;
  EXPECT_TRUE(ReadArtifact(std::string(WIMPI_BASELINE_DIR) + "/" + name, &a,
                           &error))
      << error;
  return a;
}

// Runs `rule` on `a` and returns its error text ("" when it passes).
template <typename Rule>
std::string Violation(Rule rule, const RunArtifact& a) {
  std::string error;
  const bool ok = rule(a, &error);
  EXPECT_EQ(ok, error.empty()) << error;
  return error;
}

TEST(ArtifactChecks, CommittedBaselinesPass) {
  EXPECT_EQ(Violation(CheckChaosArtifact, Baseline("BENCH_chaos.json")), "");
  EXPECT_EQ(Violation(CheckStatsArtifact, Baseline("BENCH_stats.json")), "");
}

TEST(ArtifactChecks, ChaosMutationsFailNamingTheRule) {
  const RunArtifact base = Baseline("BENCH_chaos.json");
  const auto mutated = [&](const std::string& series,
                           const std::string& metric, double value) {
    RunArtifact a = base;
    a.rows.at(series).at(metric) = value;
    return Violation(CheckChaosArtifact, a);
  };
  EXPECT_NE(mutated("chaos", "seeds", kMinSeeds - 1)
                .find("chaos: only 199 seeds (need >= 200)"),
            std::string::npos);
  EXPECT_NE(mutated("chaos_sf10", "seeds", kMinSf10Seeds - 1)
                .find("chaos_sf10: only 15 seeds (need >= 16)"),
            std::string::npos);
  EXPECT_NE(mutated("chaos", "checksum_mismatches", 1)
                .find("checksum mismatch"),
            std::string::npos);
  EXPECT_NE(mutated("chaos_sf10", "steals", 0)
                .find("counter 'steals' is zero"),
            std::string::npos);
  const double retry_p95 = base.rows.at("recovery").at("retry_p95_s");
  EXPECT_NE(mutated("recovery", "fine_p95_s", retry_p95)
                .find("does not beat retry_p95_s"),
            std::string::npos);
  const double retry_p50 = base.rows.at("recovery").at("retry_p50_s");
  EXPECT_EQ(mutated("recovery", "fine_p50_s", retry_p50 * 1.04), "");
  EXPECT_NE(mutated("recovery", "fine_p50_s", retry_p50 * 1.06)
                .find("median is more than 5% worse"),
            std::string::npos);
  RunArtifact missing = base;
  missing.rows.at("recovery").erase("retry_max_s");
  EXPECT_NE(Violation(CheckChaosArtifact, missing)
                .find("series 'recovery' misses metric 'retry_max_s'"),
            std::string::npos);
}

TEST(ArtifactChecks, StatsMutationsFailNamingTheRule) {
  const RunArtifact base = Baseline("BENCH_stats.json");
  const auto mutated = [&](const std::string& series,
                           const std::string& metric, double value) {
    RunArtifact a = base;
    a.rows.at(series).at(metric) = value;
    return Violation(CheckStatsArtifact, a);
  };
  EXPECT_NE(mutated("cardinality", "answer_mismatches", 1)
                .find("cardinality.answer_mismatches must be present and 0"),
            std::string::npos);
  EXPECT_NE(mutated("cardinality", "Q7.qerror.max", 0.5)
                .find("Q7: qerror.max 0.5 is not a finite value >= 1"),
            std::string::npos);
  EXPECT_NE(mutated("sketch", "lineitem.l_orderkey.ndv_rel_err", 0.06)
                .find("sketch.lineitem.l_orderkey.ndv_rel_err = 0.06 exceeds "
                      "NDV-error bound 0.05"),
            std::string::npos);
  RunArtifact missing = base;
  missing.rows.at("cardinality").erase("Q7.ops.recorded");
  EXPECT_EQ(Violation(CheckStatsArtifact, missing),
            "cardinality series is missing metrics for Q7");
}

}  // namespace
}  // namespace wimpi::bench
