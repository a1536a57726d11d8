// Golden fingerprints of all 22 TPC-H queries at SF 0.01 (seed 19921201):
// every answer bit and every OpStats counter the hardware model consumes,
// on one thread and on four threads with 4096-row morsels (so every
// morsel-parallel operator path runs). Operator kernels may be rewritten
// for speed, but a rewrite must reproduce these bit for bit: the answers
// are what the reference checks, and the counters are what every modeled
// runtime in the paper artifacts is computed from.
#include <cstring>
#include <string>

#include "common/hash.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "exec/counters.h"
#include "exec/relation.h"
#include "gtest/gtest.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

const engine::Database& Db() {
  static engine::Database* db = [] {
    tpch::GenOptions opts;
    opts.scale_factor = 0.01;
    opts.seed = 19921201;
    return new engine::Database(tpch::GenerateDatabase(opts));
  }();
  return *db;
}

uint64_t Bits(double d) {
  uint64_t v;
  std::memcpy(&v, &d, sizeof(v));
  return v;
}

// Column names, types and every value (doubles by bit pattern, strings by
// content).
uint64_t AnswerHash(const exec::Relation& rel) {
  uint64_t h = HashInt64(static_cast<uint64_t>(rel.num_rows()));
  for (int c = 0; c < rel.num_columns(); ++c) {
    const storage::Column& col = rel.column(c);
    h = HashCombine(h, HashString(rel.name(c)));
    h = HashCombine(h, static_cast<uint64_t>(col.type()));
    for (int64_t r = 0; r < rel.num_rows(); ++r) {
      switch (col.type()) {
        case storage::DataType::kInt64:
          h = HashCombine(h, static_cast<uint64_t>(col.I64Data()[r]));
          break;
        case storage::DataType::kFloat64:
          h = HashCombine(h, Bits(col.F64Data()[r]));
          break;
        case storage::DataType::kString:
          h = HashCombine(h, HashString(col.StringAt(r)));
          break;
        default:
          h = HashCombine(h, static_cast<uint32_t>(col.I32Data()[r]));
          break;
      }
    }
  }
  return h;
}

// Every OpStats field in Add() order.
uint64_t StatsHash(const exec::QueryStats& stats) {
  uint64_t h = HashInt64(stats.ops.size());
  for (const exec::OpStats& op : stats.ops) {
    h = HashCombine(h, HashString(op.op));
    for (const double v : {op.compute_ops, op.seq_bytes, op.rand_count,
                           op.rand_struct_bytes, op.output_bytes, op.rows_in,
                           op.rows_out}) {
      h = HashCombine(h, Bits(v));
    }
  }
  return h;
}

struct Golden {
  uint64_t answer;
  uint64_t stats;
};

struct QueryGolden {
  Golden t1;  // num_threads = 1
  Golden t4;  // num_threads = 4, morsel_rows = 4096
};

// Recorded with the per-row filter, gather, LIKE and probe kernels, before
// any of them was rewritten. Index q - 1.
const QueryGolden kGolden[22] = {
    {{0x226965174c3dcc43ULL, 0x1f5f95ba76491366ULL},
     {0x3d9e666c2f3edf72ULL, 0x2248d4bde80c2da1ULL}},  // Q1
    {{0xac5bc34c181c497dULL, 0x575cc3fa2b5c4d0dULL},
     {0xac5bc34c181c497dULL, 0x575cc3fa2b5c4d0dULL}},  // Q2
    {{0x531977901cd6011ULL, 0xe5b14663a20457c9ULL},
     {0x531977901cd6011ULL, 0xe5b14663a20457c9ULL}},  // Q3
    {{0x3f086d3947bd26a8ULL, 0x43571cdb7e2f9d93ULL},
     {0x3f086d3947bd26a8ULL, 0x43571cdb7e2f9d93ULL}},  // Q4
    {{0x199b720389c25dd4ULL, 0xa71fc9e2172fb0c2ULL},
     {0x199b720389c25dd4ULL, 0xa71fc9e2172fb0c2ULL}},  // Q5
    {{0xeb4ca58fd72d6aeaULL, 0xe622041995f37811ULL},
     {0xeb4ca58fd72d6aeaULL, 0xe622041995f37811ULL}},  // Q6
    {{0xa16e8329aefbb251ULL, 0x6d4a42db38acaf9fULL},
     {0xa16e8329aefbb251ULL, 0x6d4a42db38acaf9fULL}},  // Q7
    {{0x75e1923906e22c81ULL, 0x13e9496ef61e8ea0ULL},
     {0x75e1923906e22c81ULL, 0x13e9496ef61e8ea0ULL}},  // Q8
    {{0x2a331e088c727d5bULL, 0x755a69305fd77bb5ULL},
     {0x2a331e088c727d5bULL, 0x755a69305fd77bb5ULL}},  // Q9
    {{0xb54900b7e30c8c29ULL, 0x6faadb4f2c47dadeULL},
     {0xb54900b7e30c8c29ULL, 0x6faadb4f2c47dadeULL}},  // Q10
    {{0xd1b7bf97c597a4c9ULL, 0x89e49b46d6d22e0aULL},
     {0xd1b7bf97c597a4c9ULL, 0x89e49b46d6d22e0aULL}},  // Q11
    {{0xf50d30a1610d2aa9ULL, 0x8902724a87c22456ULL},
     {0xf50d30a1610d2aa9ULL, 0x8902724a87c22456ULL}},  // Q12
    {{0x5c45af6683c37a21ULL, 0x5ac1da41141dab7cULL},
     {0x5c45af6683c37a21ULL, 0x4a4cefe48a3099e5ULL}},  // Q13
    {{0xe0d97547784f7c43ULL, 0x160dab3e3e2be96eULL},
     {0xe0d97547784f7c43ULL, 0x160dab3e3e2be96eULL}},  // Q14
    {{0x740fcd97742fee3fULL, 0xeb93bb030443a696ULL},
     {0x740fcd97742fee3fULL, 0xeb93bb030443a696ULL}},  // Q15
    {{0x1c37da9a36cd5b8eULL, 0x3a622e26f1984b6cULL},
     {0x1c37da9a36cd5b8eULL, 0x3a622e26f1984b6cULL}},  // Q16
    {{0x466c24d552e0dabfULL, 0x45a216ebd6b301b3ULL},
     {0x466c24d552e0dabfULL, 0x45a216ebd6b301b3ULL}},  // Q17
    {{0x74e278f5661dcbb3ULL, 0x3fc1ca5e2cc292f6ULL},
     {0x74e278f5661dcbb3ULL, 0xa9b32a00743e4b1ULL}},  // Q18
    {{0x65878deb39b8354bULL, 0x5c453606d9c019e1ULL},
     {0x65878deb39b8354bULL, 0x5c453606d9c019e1ULL}},  // Q19
    {{0xc5673e8b2d97defdULL, 0x11ca4fb2472c4e57ULL},
     {0xc5673e8b2d97defdULL, 0x11ca4fb2472c4e57ULL}},  // Q20
    {{0x39d8bced4f6d12c6ULL, 0x16b25d1951cce8cbULL},
     {0x39d8bced4f6d12c6ULL, 0xe47421c104c33daeULL}},  // Q21
    {{0xadc5f7096edbe6acULL, 0x194af81a84a13cfcULL},
     {0xadc5f7096edbe6acULL, 0x194af81a84a13cfcULL}},  // Q22
};

Golden RunGolden(int q, int threads, int64_t morsel_rows) {
  engine::Executor ex;
  ex.set_num_threads(threads);
  ex.set_morsel_rows(morsel_rows);
  exec::QueryStats stats;
  const exec::Relation rel = ex.Run(
      [&](exec::QueryStats* s) { return tpch::RunQuery(q, Db(), s); }, &stats);
  return {AnswerHash(rel), StatsHash(stats)};
}

void ExpectGolden(int q, const Golden& got, const Golden& want) {
  EXPECT_EQ(got.answer, want.answer)
      << std::hex << "Q" << std::dec << q << " answer 0x" << std::hex
      << got.answer;
  EXPECT_EQ(got.stats, want.stats)
      << std::hex << "Q" << std::dec << q << " stats 0x" << std::hex
      << got.stats;
}

class GoldenQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenQueryTest, OneThread) {
  const int q = GetParam();
  ExpectGolden(q, RunGolden(q, 1, exec::ExecOptions{}.morsel_rows),
               kGolden[q - 1].t1);
}

TEST_P(GoldenQueryTest, FourThreadsSmallMorsels) {
  const int q = GetParam();
  ExpectGolden(q, RunGolden(q, 4, 4096), kGolden[q - 1].t4);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, GoldenQueryTest, ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "Q";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace wimpi
