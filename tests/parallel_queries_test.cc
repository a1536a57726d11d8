// End-to-end validation of morsel-parallel execution: every TPC-H query,
// at two scale factors, must produce the same answer at every thread count
// — checked against the row-at-a-time reference, plus bit-identity of the
// num_threads=1 path with the plain engine and run-to-run determinism at a
// fixed thread count. Thread counts above the host's core count are
// exercised deliberately; determinism must not depend on physical cores.
// No query result, and no distributed node partial, may borrow a column of
// the database it ran on.
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/partials.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "exec/exec_options.h"
#include "gtest/gtest.h"
#include "reference.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/query_utils.h"

namespace wimpi {
namespace {

constexpr double kScaleFactors[] = {0.01, 0.1};

const engine::Database& TestDb(int sf_idx) {
  static engine::Database* dbs[2] = {nullptr, nullptr};
  if (dbs[sf_idx] == nullptr) {
    tpch::GenOptions opts;
    opts.scale_factor = kScaleFactors[sf_idx];
    dbs[sf_idx] = new engine::Database(tpch::GenerateDatabase(opts));
  }
  return *dbs[sf_idx];
}

std::vector<int> ThreadCounts() {
  const int hc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> counts = {1, 2, 4};
  if (hc != 1 && hc != 2 && hc != 4) counts.push_back(hc);
  return counts;
}

// Exact (bit-level) relation comparison: same shape, names, types, and raw
// column payloads. Used where the engine guarantees determinism, not just
// numerically-equal answers.
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

// Param: (scale factor index, query number).
class ParallelQueryTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelQueryTest, MatchesReferenceAtEveryThreadCount) {
  const auto [sf_idx, q] = GetParam();
  const engine::Database& db = TestDb(sf_idx);
  const tpch_ref::RefResult expected = tpch_ref::RunReference(q, db);

  for (const int threads : ThreadCounts()) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    engine::Executor ex;
    ex.set_num_threads(threads);
    const exec::Relation result =
        ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); });
    ExpectRefResultsEqual(ToRefResult(result), expected);
  }
}

TEST_P(ParallelQueryTest, OneThreadIsBitIdenticalToPlainEngine) {
  const auto [sf_idx, q] = GetParam();
  const engine::Database& db = TestDb(sf_idx);

  const exec::Relation plain = tpch::RunQuery(q, db, nullptr);
  engine::Executor ex;  // default options: num_threads = 1
  const exec::Relation via_executor =
      ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); });
  ExpectRelationsIdentical(via_executor, plain);
}

TEST_P(ParallelQueryTest, ParallelRunsAreDeterministic) {
  const auto [sf_idx, q] = GetParam();
  const engine::Database& db = TestDb(sf_idx);

  engine::Executor ex;
  ex.set_num_threads(4);
  // Small morsels force real fan-out even at SF 0.01.
  ex.set_morsel_rows(4096);
  auto run = [&] {
    return ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); });
  };
  const exec::Relation first = run();
  const exec::Relation second = run();
  // Morsel boundaries and merge order are fixed, so two runs at the same
  // thread count agree bit-for-bit no matter how workers were scheduled.
  ExpectRelationsIdentical(second, first);
}

// Whole-table scans borrow the table's columns (tpch::ScanAll); every plan
// must end in an operator that writes its own, so that a result outlives
// the database it came from.
TEST(BorrowedColumnTest, NoResultOrPartialBorrowsFromTheDatabase) {
  const engine::Database& db = TestDb(0);
  std::set<const storage::Column*> base;
  for (const auto& [name, table] : db.tables()) {
    for (int c = 0; c < table->schema().num_fields(); ++c) {
      base.insert(&table->column(c));
    }
  }
  auto expect_owned = [&](const exec::Relation& r) {
    for (int c = 0; c < r.num_columns(); ++c) {
      EXPECT_EQ(base.count(&r.column(c)), 0u) << "column " << r.name(c);
    }
  };
  // The check sees a borrow: a scan's columns are the table's.
  const exec::Relation scan =
      tpch::ScanAll(db.table("nation"), {"n_name"}, nullptr);
  ASSERT_EQ(base.count(&scan.column(0)), 1u);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    engine::Executor ex;
    ex.set_num_threads(threads);
    for (int q = 1; q <= 22; ++q) {
      SCOPED_TRACE("Q" + std::to_string(q));
      expect_owned(ex.Run(
          [&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); }));
      if (const auto split = tpch::SplitOf(q)) {
        SCOPED_TRACE("node partial");
        expect_owned(ex.Run([&](exec::QueryStats* s) {
          return cluster::RunPartial(*split, db, s);
        }));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, ParallelQueryTest,
    ::testing::Combine(::testing::Range(0, 2), ::testing::Range(1, 23)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      const int sf_idx = std::get<0>(info.param);
      return "SF" + std::string(sf_idx == 0 ? "001" : "010") + "Q" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace wimpi
