// Distributed-correctness and cluster-simulation tests: the WIMPI driver
// must produce exactly the single-node answer at every cluster size, and
// the timing model must show the paper's qualitative effects.
#include <cstring>

#include "cluster/partials.h"
#include "cluster/partition.h"
#include "cluster/wimpi_cluster.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/query_utils.h"

namespace wimpi {
namespace {

const engine::Database& TestDb() {
  static engine::Database* db = [] {
    tpch::GenOptions opts;
    opts.scale_factor = 0.02;
    return new engine::Database(tpch::GenerateDatabase(opts));
  }();
  return *db;
}

class DistributedQueryTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistributedQueryTest, MatchesSingleNode) {
  const auto [q, nodes] = GetParam();
  cluster::ClusterOptions opts;
  opts.num_nodes = nodes;
  const cluster::WimpiCluster wimpi(TestDb(), opts);

  hw::CostModel model;
  const auto r = wimpi.Run(q, model);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const cluster::DistributedRun& run = *r;

  exec::QueryStats stats;
  const exec::Relation expected = tpch::RunQuery(q, TestDb(), &stats);
  ExpectRefResultsEqual(ToRefResult(run.result), ToRefResult(expected));

  EXPECT_GT(run.total_seconds, 0.0);
  EXPECT_EQ(run.nodes_used, q == 13 ? 1 : nodes);
  if (q != 13) {
    EXPECT_GT(run.network_bytes, 0.0);
    EXPECT_GT(run.network_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sf10Subset, DistributedQueryTest,
    ::testing::Combine(::testing::ValuesIn(std::vector<int>(
                           tpch::kSf10Queries,
                           tpch::kSf10Queries + tpch::kNumSf10Queries)),
                       ::testing::Values(2, 3, 5, 24)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "Q" + std::to_string(std::get<0>(info.param)) + "_N" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Derived partial + merge on synthetic splits ----
//
// A 997-row table whose float64 values are small integers, so every sum
// and every sum/count quotient is exact whatever the partitioning: the
// merged result must equal the single-node result bit for bit.
std::shared_ptr<storage::Table> SplitTestTable() {
  using storage::DataType;
  auto t = std::make_shared<storage::Table>(
      "t", storage::Schema({{cluster::kPartitionKey, DataType::kInt64},
                            {"g", DataType::kInt32},
                            {"x", DataType::kFloat64},
                            {"y", DataType::kFloat64}}));
  for (int i = 0; i < 997; ++i) {
    t->column(0).AppendInt64(i / 3);
    t->column(1).AppendInt32(i % 5);
    t->column(2).AppendFloat64(i % 7);
    t->column(3).AppendFloat64((i * 3) % 11);
  }
  t->FinishLoad();
  return t;
}

tpch::QuerySplit ScanSplit() {
  tpch::QuerySplit s;
  s.input = [](const engine::Database& db, exec::QueryStats* stats) {
    return tpch::ScanAll(db.table("t"),
                         {cluster::kPartitionKey, "g", "x", "y"}, stats);
  };
  return s;
}

void ExpectSameBits(const exec::Relation& actual,
                    const exec::Relation& expected) {
  ASSERT_EQ(actual.num_columns(), expected.num_columns());
  ASSERT_EQ(actual.num_rows(), expected.num_rows());
  for (int c = 0; c < expected.num_columns(); ++c) {
    const storage::Column& a = actual.column(c);
    const storage::Column& e = expected.column(c);
    EXPECT_EQ(actual.name(c), expected.name(c));
    ASSERT_EQ(a.type(), e.type()) << expected.name(c);
    auto data = [](const storage::Column& col) -> const void* {
      switch (col.type()) {
        case storage::DataType::kInt64: return col.I64Data();
        case storage::DataType::kFloat64: return col.F64Data();
        default: return col.I32Data();
      }
    };
    EXPECT_EQ(std::memcmp(data(a), data(e),
                          expected.num_rows() * storage::TypeWidth(e.type())),
              0)
        << expected.name(c);
  }
}

// Runs `split` single-node and derived over 1, 2 and 7 partitions;
// returns the largest partial's row count at 7 partitions.
int64_t CheckSplit(const tpch::QuerySplit& split) {
  const auto table = SplitTestTable();
  engine::Database whole;
  whole.AddTable(table);
  const exec::Relation expected = split.Run(whole, nullptr);
  EXPECT_GT(expected.num_rows(), 0);
  int64_t max_partial_rows = 0;
  for (const int n : {1, 2, 7}) {
    SCOPED_TRACE(std::to_string(n) + " partitions");
    std::vector<engine::Database> nodes(n);
    const auto parts =
        cluster::PartitionByKey(*table, cluster::kPartitionKey, n);
    std::vector<exec::Relation> partials;
    max_partial_rows = 0;
    for (int p = 0; p < n; ++p) {
      nodes[p].AddTable(parts[p]);
      partials.push_back(cluster::RunPartial(split, nodes[p], nullptr));
      max_partial_rows = std::max(max_partial_rows, partials.back().num_rows());
    }
    ExpectSameBits(
        cluster::MergePartials(split, nodes[0], std::move(partials), nullptr),
        expected);
  }
  return max_partial_rows;
}

TEST(DerivedSplitTest, GroupedAvgReusesSumAndCountStates) {
  tpch::QuerySplit s = ScanSplit();
  s.group_by = {"g"};
  s.aggs = {{exec::AggFn::kSum, "x", "sx"},
            {exec::AggFn::kAvg, "x", "ax"},
            {exec::AggFn::kCountStar, "", "n"},
            {exec::AggFn::kAvg, "y", "ay"}};
  s.order_by = {{"g", true}};
  CheckSplit(s);
  // The node aggregate holds SUM(x), COUNT(*) and SUM(y): three states.
  engine::Database db;
  db.AddTable(SplitTestTable());
  EXPECT_EQ(cluster::RunPartial(s, db, nullptr).num_columns(), 1 + 3);
}

TEST(DerivedSplitTest, GroupedAvgWithoutReusableStates) {
  tpch::QuerySplit s = ScanSplit();
  s.group_by = {"g"};
  s.aggs = {{exec::AggFn::kAvg, "x", "ax"},
            {exec::AggFn::kMax, "y", "my"},
            {exec::AggFn::kCount, "y", "cy"},
            {exec::AggFn::kAvg, "y", "ay"}};
  s.order_by = {{"ax", false}, {"g", true}};
  CheckSplit(s);
}

TEST(DerivedSplitTest, KeylessSumsWithFinish) {
  for (const bool sum_f64 : {false, true}) {
    SCOPED_TRACE(sum_f64 ? "SumF64" : "keyless HashAggregate");
    tpch::QuerySplit s = ScanSplit();
    s.aggs = {{exec::AggFn::kSum, "x", "sx"}, {exec::AggFn::kSum, "y", "sy"}};
    s.sum_f64 = sum_f64;
    s.finish = [](const engine::Database&, exec::Relation sums,
                  exec::QueryStats*) {
      return tpch::ScalarRelation(
          {"ratio"}, {sums.column("sx").F64Data()[0] /
                      sums.column("sy").F64Data()[0]});
    };
    EXPECT_EQ(CheckSplit(s), 1);
  }
}

TEST(DerivedSplitTest, DisjointGroupsShipNodeLocalTopK) {
  tpch::QuerySplit s = ScanSplit();
  s.group_by = {cluster::kPartitionKey};
  s.aggs = {{exec::AggFn::kSum, "x", "sx"}, {exec::AggFn::kAvg, "y", "ay"}};
  s.order_by = {{"sx", false}, {cluster::kPartitionKey, true}};
  s.limit = 10;
  EXPECT_EQ(CheckSplit(s), 10);
}

TEST(DerivedSplitTest, PartitionKeyWithFinishFallsBackToGrouped) {
  tpch::QuerySplit s = ScanSplit();
  s.group_by = {cluster::kPartitionKey};
  s.aggs = {{exec::AggFn::kSum, "x", "sx"}, {exec::AggFn::kAvg, "y", "ay"}};
  s.finish = [](const engine::Database&, exec::Relation agg,
                exec::QueryStats*) { return agg; };
  s.order_by = {{"sx", false}, {cluster::kPartitionKey, true}};
  s.limit = 10;
  // Every group of the partition ships: no top-k on the node.
  EXPECT_GT(CheckSplit(s), 10);
}

TEST(ClusterApiTest, UnsupportedQueryIsInvalidArgument) {
  // Queries outside the distributed subset must come back as a Status, not
  // a process abort.
  cluster::ClusterOptions opts;
  opts.num_nodes = 2;
  const cluster::WimpiCluster wimpi(TestDb(), opts);
  hw::CostModel model;
  for (const int q : {0, 2, 7, 22, 99}) {
    const auto r = wimpi.Run(q, model);
    ASSERT_FALSE(r.ok()) << "Q" << q;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << "Q" << q;
  }
}

TEST(PartitionTest, RowsArePreservedAndDisjoint) {
  const auto& lineitem = TestDb().table("lineitem");
  const auto parts = cluster::PartitionByKey(lineitem, "l_orderkey", 7);
  int64_t total = 0;
  for (const auto& p : parts) total += p->num_rows();
  EXPECT_EQ(total, lineitem.num_rows());

  // Each order key lands on exactly one partition.
  std::map<int64_t, int> owner;
  for (size_t i = 0; i < parts.size(); ++i) {
    const int64_t* keys = parts[i]->column("l_orderkey").I64Data();
    for (int64_t r = 0; r < parts[i]->num_rows(); ++r) {
      auto [it, inserted] = owner.emplace(keys[r], i);
      if (!inserted) {
        ASSERT_EQ(it->second, static_cast<int>(i))
            << "order " << keys[r] << " split across partitions";
      }
    }
  }

  // Partitions are reasonably balanced (hash partitioning).
  const int64_t ideal = lineitem.num_rows() / 7;
  for (const auto& p : parts) {
    EXPECT_GT(p->num_rows(), ideal / 2);
    EXPECT_LT(p->num_rows(), ideal * 2);
  }
}

TEST(PartitionTest, SharesDictionaries) {
  const auto& lineitem = TestDb().table("lineitem");
  const auto parts = cluster::PartitionByKey(lineitem, "l_orderkey", 3);
  for (const auto& p : parts) {
    EXPECT_EQ(p->column("l_shipmode").dict().get(),
              lineitem.column("l_shipmode").dict().get());
  }
}

TEST(ClusterModelTest, MoreNodesReduceQ1Time) {
  // Q1 is bandwidth-bound; with enough memory per node, adding nodes must
  // reduce simulated time (until network latency takes over).
  hw::CostModel model;
  double prev = 1e9;
  for (int n : {2, 4, 8}) {
    cluster::ClusterOptions opts;
    opts.num_nodes = n;
    opts.sf_scale = 10.0;
    const cluster::WimpiCluster wimpi(TestDb(), opts);
    const auto run = wimpi.Run(1, model).value();
    EXPECT_LT(run.total_seconds, prev) << n << " nodes";
    prev = run.total_seconds;
  }
}

TEST(ClusterModelTest, Q13TimeIsFlatAcrossClusterSizes) {
  hw::CostModel model;
  double first = -1;
  for (int n : {2, 4, 8}) {
    cluster::ClusterOptions opts;
    opts.num_nodes = n;
    const cluster::WimpiCluster wimpi(TestDb(), opts);
    const auto run = wimpi.Run(13, model).value();
    if (first < 0) {
      first = run.total_seconds;
    } else {
      EXPECT_NEAR(run.total_seconds, first, first * 1e-6);
    }
  }
}

TEST(ClusterModelTest, MemoryPressureTriggersSpill) {
  hw::CostModel model;
  cluster::ClusterOptions opts;
  opts.num_nodes = 2;
  opts.sf_scale = 50.0;                          // blow past 1 GB per node
  opts.node_memory_bytes = 64.0 * 1024 * 1024;   // tiny nodes
  const cluster::WimpiCluster small(TestDb(), opts);
  const auto constrained = small.Run(1, model).value();
  EXPECT_GT(constrained.spill_seconds, 0.0);

  opts.node_memory_bytes = 1e12;  // effectively infinite
  const cluster::WimpiCluster big(TestDb(), opts);
  const auto unconstrained = big.Run(1, model).value();
  EXPECT_EQ(unconstrained.spill_seconds, 0.0);
  EXPECT_LT(unconstrained.total_seconds, constrained.total_seconds);
}

TEST(ClusterModelTest, NetworkModelMatchesEffectiveBandwidth) {
  cluster::ClusterOptions opts;
  opts.num_nodes = 2;
  const cluster::WimpiCluster wimpi(TestDb(), opts);
  // 220 Mbit worth of payload should take ~1 second plus latency.
  const double s = wimpi.NetworkSeconds(220e6 / 8.0, 1);
  EXPECT_NEAR(s, 1.0 + opts.per_node_latency_s, 1e-9);
}

TEST(ClusterModelTest, NodeLogicalBytesScalesWithSf) {
  cluster::ClusterOptions opts;
  opts.num_nodes = 4;
  const cluster::WimpiCluster wimpi(TestDb(), opts);
  const double at1 = wimpi.NodeLogicalBytes(1.0);
  const double at10 = wimpi.NodeLogicalBytes(10.0);
  EXPECT_GT(at10, 9 * at1);
  EXPECT_LT(at10, 11 * at1);
}

}  // namespace
}  // namespace wimpi
