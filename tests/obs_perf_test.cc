// Hardware perf counters must be an observer, not a participant. The
// acceptance bar from the issue: with perf unavailable (forced here via
// WIMPI_PERF_DISABLE=1 — the same path taken under high perf_event_paranoid
// or a PMU-less container) queries return bit-identical results and trees
// report "counters unavailable"; with perf available the same queries are
// still bit-identical and IPC/LLC metrics appear where the host supports
// the events. Both paths run in this binary.
#include <cstdlib>
#include <string>

#include "engine/database.h"
#include "engine/executor.h"
#include "gtest/gtest.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/residual.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

const engine::Database& TestDb() {
  static engine::Database* db = nullptr;
  if (db == nullptr) {
    tpch::GenOptions opts;
    opts.scale_factor = 0.01;
    db = new engine::Database(tpch::GenerateDatabase(opts));
  }
  return *db;
}

// Exact (bit-level) relation comparison — the perf-on run must not differ
// from the plain run in a single bit.
void ExpectRelationsIdentical(const exec::Relation& a,
                              const exec::Relation& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  const int64_t n = a.num_rows();
  for (int c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.name(c), b.name(c));
    const auto& ca = a.column(c);
    const auto& cb = b.column(c);
    ASSERT_EQ(ca.type(), cb.type()) << "column " << a.name(c);
    for (int64_t r = 0; r < n; ++r) {
      switch (ca.type()) {
        case storage::DataType::kInt64:
          ASSERT_EQ(ca.I64Data()[r], cb.I64Data()[r])
              << a.name(c) << " row " << r;
          break;
        case storage::DataType::kFloat64:
          ASSERT_EQ(ca.F64Data()[r], cb.F64Data()[r])
              << a.name(c) << " row " << r;
          break;
        case storage::DataType::kString:
          ASSERT_EQ(ca.StringAt(r), cb.StringAt(r))
              << a.name(c) << " row " << r;
          break;
        default:
          ASSERT_EQ(ca.I32Data()[r], cb.I32Data()[r])
              << a.name(c) << " row " << r;
          break;
      }
    }
  }
}

// Scoped WIMPI_PERF_DISABLE so tests can force the unavailable path
// without leaking into other tests in this binary.
class ScopedPerfDisable {
 public:
  ScopedPerfDisable() { setenv("WIMPI_PERF_DISABLE", "1", /*overwrite=*/1); }
  ~ScopedPerfDisable() { unsetenv("WIMPI_PERF_DISABLE"); }
};

obs::ProfileOptions PerfProfiling() {
  obs::ProfileOptions popts;
  popts.operator_profile = true;
  popts.perf_counters = true;
  return popts;
}

// ---------- PerfCounts arithmetic (host-independent) ----------

TEST(PerfCounts, DefaultsUnavailable) {
  obs::PerfCounts c;
  EXPECT_FALSE(c.AnyAvailable());
  for (int i = 0; i < obs::PerfCounts::kNumEvents; ++i) {
    EXPECT_FALSE(c.Has(static_cast<obs::PerfEvent>(i)));
  }
  EXPECT_LT(c.Ipc(), 0);
  EXPECT_LT(c.LlcMissRate(), 0);
  EXPECT_LT(c.DramBytes(), 0);
  EXPECT_TRUE(c.Summary().empty());
}

TEST(PerfCounts, DerivedMetrics) {
  obs::PerfCounts c;
  c.Set(obs::PerfEvent::kCycles, 1000);
  c.Set(obs::PerfEvent::kInstructions, 1850);
  c.Set(obs::PerfEvent::kLlcLoads, 200);
  c.Set(obs::PerfEvent::kLlcMisses, 25);
  c.Set(obs::PerfEvent::kTaskClockNs, 500);
  EXPECT_TRUE(c.AnyAvailable());
  EXPECT_DOUBLE_EQ(c.Ipc(), 1.85);
  EXPECT_DOUBLE_EQ(c.LlcMissRate(), 0.125);
  EXPECT_DOUBLE_EQ(c.DramBytes(), 25 * 64.0);
  EXPECT_DOUBLE_EQ(c.GhzEffective(), 2.0);
  const std::string s = c.Summary();
  EXPECT_NE(s.find("IPC"), std::string::npos);
  EXPECT_NE(s.find("LLC-miss"), std::string::npos);
}

TEST(PerfCounts, DeltaAndAccumulateKeepUnavailabilitySticky) {
  obs::PerfCounts start, end;
  start.Set(obs::PerfEvent::kInstructions, 100);
  end.Set(obs::PerfEvent::kInstructions, 175);
  end.Set(obs::PerfEvent::kCycles, 50);  // missing at start

  const obs::PerfCounts d = end.Delta(start);
  EXPECT_EQ(d.Get(obs::PerfEvent::kInstructions), 75);
  EXPECT_FALSE(d.Has(obs::PerfEvent::kCycles));
  EXPECT_FALSE(d.Has(obs::PerfEvent::kLlcLoads));

  obs::PerfCounts acc = d;
  acc.Accumulate(d);
  EXPECT_EQ(acc.Get(obs::PerfEvent::kInstructions), 150);
  EXPECT_FALSE(acc.Has(obs::PerfEvent::kCycles));
}

TEST(PerfCounts, EventNamesAreStable) {
  EXPECT_STREQ(obs::PerfEventName(obs::PerfEvent::kCycles), "cycles");
  EXPECT_STREQ(obs::PerfEventName(obs::PerfEvent::kLlcMisses),
               "llc_misses");
  EXPECT_STREQ(obs::PerfEventName(obs::PerfEvent::kTaskClockNs),
               "task_clock_ns");
}

// ---------- forced-unavailable path ----------

TEST(PerfDisabled, OpenFailsWithReason) {
  ScopedPerfDisable off;
  EXPECT_FALSE(obs::PerfCounters::Available());
  EXPECT_FALSE(obs::PerfCounters::AvailabilityNote().empty());
  obs::PerfCounters pc;
  EXPECT_FALSE(pc.Open());
  EXPECT_FALSE(pc.open());
  EXPECT_EQ(pc.num_events_open(), 0);
  EXPECT_FALSE(pc.error().empty());
  EXPECT_FALSE(pc.Read().AnyAvailable());
}

TEST(PerfDisabled, ProfiledRunBitIdenticalAndTreeSaysUnavailable) {
  const engine::Database& db = TestDb();
  for (const int q : {1, 6, 18}) {
    SCOPED_TRACE("Q" + std::to_string(q));
    engine::Executor ex;
    ex.set_num_threads(1);

    const exec::Relation plain =
        ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); });

    ScopedPerfDisable off;
    obs::QueryProfile profile;
    exec::QueryStats stats;
    const exec::Relation with_perf = ex.RunProfiled(
        [&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); },
        PerfProfiling(), &profile, &stats, "Q" + std::to_string(q));

    ExpectRelationsIdentical(with_perf, plain);
    EXPECT_FALSE(profile.perf_valid);
    EXPECT_NE(profile.perf_note.find("counters unavailable"),
              std::string::npos);
    EXPECT_NE(profile.FormatTree().find("counters unavailable"),
              std::string::npos);

    const obs::CounterResidualReport report = obs::CounterResiduals(profile);
    EXPECT_FALSE(report.available);
    EXPECT_NE(report.Format().find("counters unavailable"),
              std::string::npos);
  }
}

// ---------- live path (degrades per host capability) ----------

TEST(PerfLive, ProfiledRunBitIdenticalAndCountersReportedWhenCountable) {
  const engine::Database& db = TestDb();
  engine::Executor ex;
  ex.set_num_threads(1);

  const exec::Relation plain =
      ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(6, db, s); });

  obs::QueryProfile profile;
  exec::QueryStats stats;
  const exec::Relation with_perf = ex.RunProfiled(
      [&](exec::QueryStats* s) { return tpch::RunQuery(6, db, s); },
      PerfProfiling(), &profile, &stats, "Q6");

  // Bit-identical regardless of what the host can count.
  ExpectRelationsIdentical(with_perf, plain);

  if (!obs::PerfCounters::Available()) {
    // PMU-less host (common in CI containers): must have degraded with a
    // reason, same as the forced path.
    EXPECT_FALSE(profile.perf_valid);
    EXPECT_NE(profile.perf_note.find("counters unavailable"),
              std::string::npos);
    return;
  }

  ASSERT_TRUE(profile.perf_valid);
  EXPECT_TRUE(profile.perf_note.empty());
  EXPECT_TRUE(profile.perf.AnyAvailable());
  // Whatever subset is countable must have actually counted.
  for (int i = 0; i < obs::PerfCounts::kNumEvents; ++i) {
    const auto e = static_cast<obs::PerfEvent>(i);
    if (profile.perf.Has(e)) {
      EXPECT_GE(profile.perf.Get(e), 0);
    }
  }
  if (profile.perf.Has(obs::PerfEvent::kTaskClockNs)) {
    EXPECT_GT(profile.perf.Get(obs::PerfEvent::kTaskClockNs), 0);
  }
  if (profile.perf.Has(obs::PerfEvent::kCycles) &&
      profile.perf.Has(obs::PerfEvent::kInstructions)) {
    EXPECT_GT(profile.perf.Ipc(), 0);
    // The tree footer renders the summary (IPC included).
    EXPECT_NE(profile.FormatTree().find("IPC"), std::string::npos);
  }
  EXPECT_NE(profile.FormatTree().find("perf:"), std::string::npos);

  const obs::CounterResidualReport report = obs::CounterResiduals(profile);
  EXPECT_TRUE(report.available);
  EXPECT_GT(report.total_compute_ops, 0);
  EXPECT_GT(report.total_seq_bytes, 0);
  EXPECT_FALSE(report.entries.empty());
  EXPECT_FALSE(report.Format().empty());
}

TEST(PerfLive, NotRequestedMeansNoNoteAndNoCounters) {
  const engine::Database& db = TestDb();
  engine::Executor ex;
  ex.set_num_threads(1);
  obs::ProfileOptions popts;  // perf_counters off
  popts.operator_profile = true;
  obs::QueryProfile profile;
  ex.RunProfiled(
      [&](exec::QueryStats* s) { return tpch::RunQuery(6, db, s); }, popts,
      &profile, nullptr, "Q6");
  EXPECT_FALSE(profile.perf_valid);
  EXPECT_TRUE(profile.perf_note.empty());
  EXPECT_EQ(profile.FormatTree().find("counters unavailable"),
            std::string::npos);
}

}  // namespace
}  // namespace wimpi
