// Benchmark artifact pipeline: write/read round-trip, and the regression
// comparison semantics wimpi_bench_compare and the CI gate rely on.
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

}  // namespace
}  // namespace wimpi::bench
