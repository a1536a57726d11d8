// Fault-injection and recovery tests: any fault plan that leaves at least
// one live node must yield bit-identical query answers (only modeled time
// may degrade), identical seeds must reproduce identical plans and stats,
// and killing every node must surface kUnavailable instead of aborting.
#include <cstring>

#include "cluster/fault.h"
#include "cluster/recovery.h"
#include "cluster/wimpi_cluster.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

constexpr int kNodes = 4;

const engine::Database& TestDb() {
  static engine::Database* db = [] {
    tpch::GenOptions opts;
    opts.scale_factor = 0.02;
    return new engine::Database(tpch::GenerateDatabase(opts));
  }();
  return *db;
}

Result<cluster::DistributedRun> RunWith(int q, cluster::FaultPlan plan) {
  cluster::ClusterOptions opts;
  opts.num_nodes = kNodes;
  opts.faults = std::move(plan);
  const cluster::WimpiCluster wimpi(TestDb(), opts);
  hw::CostModel model;
  return wimpi.Run(q, model);
}

// Bit-exact relation comparison: doubles are compared by bit pattern, not
// tolerance — "bit-identical to the fault-free run" is the contract.
void ExpectBitIdentical(const tpch_ref::RefResult& actual,
                        const tpch_ref::RefResult& expected) {
  ASSERT_EQ(actual.size(), expected.size()) << "row count";
  for (size_t r = 0; r < actual.size(); ++r) {
    ASSERT_EQ(actual[r].size(), expected[r].size()) << "arity at row " << r;
    for (size_t c = 0; c < actual[r].size(); ++c) {
      const auto& a = actual[r][c];
      const auto& e = expected[r][c];
      if (std::holds_alternative<double>(e)) {
        ASSERT_TRUE(std::holds_alternative<double>(a));
        const double av = std::get<double>(a);
        const double ev = std::get<double>(e);
        ASSERT_EQ(std::memcmp(&av, &ev, sizeof(double)), 0)
            << "double bits differ at (" << r << "," << c << "): " << av
            << " vs " << ev;
      } else {
        ASSERT_TRUE(a == e) << "cell (" << r << "," << c << ")";
      }
    }
  }
}

class FaultMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultMatrixTest, BitIdenticalUnderEveryScenario) {
  const int q = GetParam();
  const auto clean_r = RunWith(q, cluster::FaultPlan{});
  ASSERT_TRUE(clean_r.ok()) << clean_r.status().ToString();
  const cluster::DistributedRun& clean = *clean_r;

  // The zero-fault path must not pay for the recovery machinery.
  EXPECT_EQ(clean.retries, 0);
  EXPECT_EQ(clean.reassigned_partitions, 0);
  EXPECT_EQ(clean.nodes_failed, 0);
  EXPECT_EQ(clean.degraded_seconds, 0.0);
  EXPECT_EQ(static_cast<int>(clean.attempts.size()), clean.nodes_used);
  const auto clean_ref = ToRefResult(clean.result);

  std::vector<std::pair<std::string, cluster::FaultPlan>> scenarios;
  for (int n = 0; n < kNodes; ++n) {
    scenarios.emplace_back("crash node " + std::to_string(n),
                           cluster::FaultPlan::Crash({n}));
  }
  scenarios.emplace_back("crash 3 of 4 nodes",
                         cluster::FaultPlan::Crash({0, 2, 3}));
  scenarios.emplace_back("straggler x8", cluster::FaultPlan::Slowdown(1, 8.0));
  scenarios.emplace_back("network stall",
                         cluster::FaultPlan::NetworkStall(2, 0.5, 2));
  scenarios.emplace_back("transient failure",
                         cluster::FaultPlan::Transient(3, 2));

  for (auto& [name, plan] : scenarios) {
    SCOPED_TRACE(name);
    const auto r = RunWith(q, std::move(plan));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectBitIdentical(ToRefResult(r->result), clean_ref);
    // Faults only ever stretch modeled time.
    EXPECT_GE(r->total_seconds, clean.total_seconds);
    EXPECT_GE(r->degraded_seconds, 0.0);
    // Network / merge cost is unaffected: the same partials cross the wire.
    EXPECT_EQ(r->network_bytes, clean.network_bytes);
    EXPECT_EQ(r->network_seconds, clean.network_seconds);
    EXPECT_EQ(r->merge_seconds, clean.merge_seconds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sf10Subset, FaultMatrixTest,
    ::testing::ValuesIn(std::vector<int>(
        tpch::kSf10Queries, tpch::kSf10Queries + tpch::kNumSf10Queries)),
    [](const ::testing::TestParamInfo<int>& info) {
      return "Q" + std::to_string(info.param);
    });

TEST(FaultRecoveryTest, CrashedPartitionIsReassigned) {
  const auto r = RunWith(1, cluster::FaultPlan::Crash({0}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->nodes_failed, 1);
  EXPECT_GE(r->reassigned_partitions, 1);
  EXPECT_GE(r->retries, 1);
  EXPECT_GT(r->degraded_seconds, 0.0);
  // The timeline records the failed attempt on node 0 and the successful
  // rerun elsewhere.
  bool saw_failure = false, saw_rerun = false;
  for (const auto& a : r->attempts) {
    if (a.node == 0 && a.outcome == StatusCode::kUnavailable) {
      saw_failure = true;
    }
    if (a.partition == 0 && a.node != 0 && a.outcome == StatusCode::kOk) {
      saw_rerun = true;
    }
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_rerun);
}

TEST(FaultRecoveryTest, RollupsIncludeTheNodeANonFanOutQueryMovedTo) {
  // Q13 runs on one node. When node 0 crashes it is reassigned, and the
  // per-node rollups must cover the node that finally ran it.
  const auto r = RunWith(13, cluster::FaultPlan::Crash({0}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->attempts.size(), 2u);
  EXPECT_EQ(r->node_rollups.at("node.attempts.sum"),
            static_cast<double>(r->attempts.size()));
  EXPECT_EQ(r->node_rollups.at("node.busy_s.max"), r->max_node_seconds);
  EXPECT_EQ(r->node_rollups.at("node.dead.sum"), 1.0);
}

TEST(FaultRecoveryTest, MoreCrashesNeverSpeedThingsUp) {
  // Nested crash sets: each superset must cost at least as much modeled
  // time as its subset (survivors absorb strictly more work).
  double prev = 0.0;
  for (const auto& nodes :
       {std::vector<int>{}, {0}, {0, 2}, {0, 2, 3}}) {
    const auto r = RunWith(1, cluster::FaultPlan::Crash(nodes));
    ASSERT_TRUE(r.ok()) << nodes.size() << " crashes";
    EXPECT_GE(r->total_seconds, prev) << nodes.size() << " crashes";
    prev = r->total_seconds;
  }
}

TEST(FaultRecoveryTest, AllNodesCrashedIsUnavailable) {
  const auto r = RunWith(1, cluster::FaultPlan::Crash({0, 1, 2, 3}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("every node failed"),
            std::string::npos);
}

TEST(FaultRecoveryTest, StragglerEventuallyCompletesWithoutReassignTarget) {
  // Every node slowed: no faster node exists, so after enough bounced
  // attempts the driver must accept straggler runs and still finish.
  cluster::FaultPlan plan;
  for (int n = 0; n < kNodes; ++n) {
    auto one = cluster::FaultPlan::Slowdown(n, 32.0);
    plan.faults.push_back(one.faults[0]);
  }
  const auto clean = RunWith(6, cluster::FaultPlan{});
  ASSERT_TRUE(clean.ok());
  const auto r = RunWith(6, std::move(plan));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectBitIdentical(ToRefResult(r->result), ToRefResult(clean->result));
  EXPECT_GT(r->total_seconds, clean->total_seconds);
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  for (const uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const auto a = cluster::FaultPlan::Generate(seed, 24);
    const auto b = cluster::FaultPlan::Generate(seed, 24);
    ASSERT_EQ(a.faults.size(), b.faults.size()) << seed;
    EXPECT_EQ(a.seed, seed);
    for (size_t i = 0; i < a.faults.size(); ++i) {
      EXPECT_EQ(a.faults[i].node, b.faults[i].node);
      EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
      EXPECT_EQ(a.faults[i].slowdown, b.faults[i].slowdown);
      EXPECT_EQ(a.faults[i].stall_seconds, b.faults[i].stall_seconds);
      EXPECT_EQ(a.faults[i].fail_attempts, b.faults[i].fail_attempts);
    }
    EXPECT_EQ(a.ToString(), b.ToString());
  }
}

TEST(FaultPlanTest, GeneratedPlansAreRecoverableAndBounded) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const auto plan = cluster::FaultPlan::Generate(seed, kNodes);
    ASSERT_FALSE(plan.empty()) << seed;
    int crashes = 0;
    for (const auto& f : plan.faults) {
      EXPECT_GE(f.node, 0);
      EXPECT_LT(f.node, kNodes);
      if (f.kind == cluster::FaultKind::kCrash) ++crashes;
    }
    EXPECT_LT(crashes, kNodes) << "seed " << seed << " kills every node";
  }
}

TEST(FaultPlanTest, SameSeedSameDistributedRunStats) {
  const auto plan = cluster::FaultPlan::Generate(7, kNodes);
  const auto a = RunWith(3, plan);
  const auto b = RunWith(3, plan);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->total_seconds, b->total_seconds);
  EXPECT_EQ(a->max_node_seconds, b->max_node_seconds);
  EXPECT_EQ(a->degraded_seconds, b->degraded_seconds);
  EXPECT_EQ(a->retries, b->retries);
  EXPECT_EQ(a->reassigned_partitions, b->reassigned_partitions);
  EXPECT_EQ(a->nodes_failed, b->nodes_failed);
  ASSERT_EQ(a->attempts.size(), b->attempts.size());
  for (size_t i = 0; i < a->attempts.size(); ++i) {
    EXPECT_EQ(a->attempts[i].partition, b->attempts[i].partition);
    EXPECT_EQ(a->attempts[i].node, b->attempts[i].node);
    EXPECT_EQ(a->attempts[i].attempt, b->attempts[i].attempt);
    EXPECT_EQ(a->attempts[i].start_seconds, b->attempts[i].start_seconds);
    EXPECT_EQ(a->attempts[i].end_seconds, b->attempts[i].end_seconds);
    EXPECT_EQ(a->attempts[i].outcome, b->attempts[i].outcome);
  }
  ExpectBitIdentical(ToRefResult(a->result), ToRefResult(b->result));
}

TEST(FaultPlanTest, GeneratedPlanRunsBitIdentical) {
  // End-to-end over a seed-derived plan (what `--faults <seed>` does).
  const auto clean = RunWith(19, cluster::FaultPlan{});
  ASSERT_TRUE(clean.ok());
  const auto r = RunWith(19, cluster::FaultPlan::Generate(42, kNodes));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectBitIdentical(ToRefResult(r->result), ToRefResult(clean->result));
  EXPECT_GE(r->total_seconds, clean->total_seconds);
}

TEST(RetryBudgetTest, AdversarialPlanExhaustsDeterministically) {
  // Every node transiently failing far past the budget: the run must stop
  // with kUnavailable instead of bouncing partitions for thousands of
  // modeled attempts — and do so identically on every execution.
  cluster::FaultPlan plan;
  for (int n = 0; n < kNodes; ++n) {
    auto one = cluster::FaultPlan::Transient(n, 1000000);
    plan.faults.push_back(one.faults[0]);
  }
  const auto a = RunWith(1, plan);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(a.status().message().find("retry budget"), std::string::npos);
  const auto b = RunWith(1, plan);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.status().ToString(), b.status().ToString());
}

TEST(RetryBudgetTest, ExplicitBudgetIsHonoured) {
  cluster::ClusterOptions opts;
  opts.num_nodes = kNodes;
  opts.faults = cluster::FaultPlan::Transient(0, 1000000);
  opts.retry_budget = 2;
  const cluster::WimpiCluster wimpi(TestDb(), opts);
  hw::CostModel model;
  const auto r = wimpi.Run(1, model);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("retry budget (2)"),
            std::string::npos);
}

// ---- fine-grained recovery (DESIGN.md §14) ----

// Model SF-1 on the physically tiny SF-0.02 database (sf_scale = 50, the
// benches' trick): per-morsel modeled work then dwarfs the 2 ms checkpoint
// round trip, so stragglers genuinely fall behind and theft is worth it.
// At sf_scale = 1 every partition collapses to near-zero modeled work and
// the machinery under test would never trigger.
cluster::ClusterOptions FineOptions(cluster::FaultPlan plan,
                                    cluster::ResizePlan resize = {}) {
  cluster::ClusterOptions opts;
  opts.num_nodes = kNodes;
  opts.sf_scale = 50.0;
  opts.faults = std::move(plan);
  opts.resize = std::move(resize);
  opts.recovery.mode = cluster::RecoveryMode::kFineGrained;
  opts.recovery.checkpoint_interval = 2;
  return opts;
}

Result<cluster::DistributedRun> RunFine(int q, cluster::FaultPlan plan,
                                        cluster::ResizePlan resize = {}) {
  const cluster::WimpiCluster wimpi(TestDb(), FineOptions(std::move(plan),
                                                          std::move(resize)));
  hw::CostModel model;
  return wimpi.Run(q, model);
}

class FineMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(FineMatrixTest, BitIdenticalAtAnyStealSchedule) {
  const int q = GetParam();
  // Ground truth: the whole-partition retry mode's clean answer.
  const auto retry_clean = RunWith(q, cluster::FaultPlan{});
  ASSERT_TRUE(retry_clean.ok()) << retry_clean.status().ToString();
  const auto truth = ToRefResult(retry_clean->result);

  const auto clean_r = RunFine(q, cluster::FaultPlan{});
  ASSERT_TRUE(clean_r.ok()) << clean_r.status().ToString();
  const cluster::DistributedRun& clean = *clean_r;
  ExpectBitIdentical(ToRefResult(clean.result), truth);
  EXPECT_GT(clean.total_morsels, 0);
  EXPECT_GT(clean.checkpoints, 0);
  EXPECT_EQ(clean.recovered_morsels, 0);
  EXPECT_EQ(clean.nodes_failed, 0);
  EXPECT_EQ(clean.degraded_seconds, 0.0);

  std::vector<std::pair<std::string, cluster::ClusterOptions>> scenarios;
  scenarios.emplace_back("crash node 0",
                         FineOptions(cluster::FaultPlan::Crash({0})));
  scenarios.emplace_back("crash 3 of 4",
                         FineOptions(cluster::FaultPlan::Crash({0, 2, 3})));
  scenarios.emplace_back("straggler x8",
                         FineOptions(cluster::FaultPlan::Slowdown(1, 8.0)));
  scenarios.emplace_back(
      "network stall",
      FineOptions(cluster::FaultPlan::NetworkStall(2, 0.5, 2)));
  scenarios.emplace_back("transient failure",
                         FineOptions(cluster::FaultPlan::Transient(3, 2)));
  scenarios.emplace_back("join mid-run",
                         FineOptions(cluster::FaultPlan{},
                                     cluster::ResizePlan::Join(0.3)));
  scenarios.emplace_back("leave mid-run",
                         FineOptions(cluster::FaultPlan{},
                                     cluster::ResizePlan::Leave(2, 0.4)));
  scenarios.emplace_back(
      "crash + resize",
      FineOptions(cluster::FaultPlan::Crash({1}),
                  cluster::ResizePlan::Join(0.2)));
  {
    auto no_steal = FineOptions(cluster::FaultPlan::Slowdown(0, 8.0));
    no_steal.recovery.steal = false;
    scenarios.emplace_back("checkpoint-only (steal off)",
                           std::move(no_steal));
  }

  for (auto& [name, opts] : scenarios) {
    SCOPED_TRACE(name);
    const cluster::WimpiCluster wimpi(TestDb(), opts);
    hw::CostModel model;
    const auto r = wimpi.Run(q, model);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectBitIdentical(ToRefResult(r->result), truth);
    EXPECT_EQ(r->total_morsels, clean.total_morsels);
    // Every morsel is acknowledged by exactly one checkpoint publish, so
    // the publish count can only grow with losses, never shrink below the
    // clean count... and stealing never disables checkpointing.
    EXPECT_GT(r->checkpoints, 0);
    if (!opts.recovery.steal) {
      EXPECT_EQ(r->steals, 0);
    }
    // Network / merge cost is unaffected: the same partials cross the
    // wire whatever the morsel schedule was.
    EXPECT_EQ(r->network_bytes, clean.network_bytes);
    EXPECT_EQ(r->merge_seconds, clean.merge_seconds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sf10Subset, FineMatrixTest,
    ::testing::ValuesIn(std::vector<int>(
        tpch::kSf10Queries, tpch::kSf10Queries + tpch::kNumSf10Queries)),
    [](const ::testing::TestParamInfo<int>& info) {
      return "Q" + std::to_string(info.param);
    });

TEST(FineRecoveryTest, CrashDuringStolenRangeExecution) {
  // Q13 does not fan out: all its morsels start on node 0 and every other
  // node's work is stolen. Node 1's only possible work is stolen work, and
  // its crash trigger (half an average share of lifetime morsels) fires
  // while it executes a stolen range — the crash-during-steal case. The
  // orphaned remainder must be re-claimed and the answer stay exact.
  const auto clean = RunFine(13, cluster::FaultPlan{});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_GT(clean->steals, 0) << "Q13 fine mode should parallelize by theft";
  const auto r = RunFine(13, cluster::FaultPlan::Crash({1}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectBitIdentical(ToRefResult(r->result), ToRefResult(clean->result));
  EXPECT_EQ(r->nodes_failed, 1);
  bool crashed_while_stealing = false;
  for (const auto& a : r->attempts) {
    if (a.node == 1 && a.stolen) crashed_while_stealing = true;
  }
  EXPECT_TRUE(crashed_while_stealing);
}

TEST(FineRecoveryTest, StragglerIsVictimizedRepeatedly) {
  // One node 8x slow in a fan-out query: the fast nodes finish, steal half
  // the straggler's remainder, finish that, and come back for more.
  const auto r = RunFine(6, cluster::FaultPlan::Slowdown(0, 8.0));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int thefts_from_straggler = 0;
  for (const auto& s : r->steal_log) {
    if (s.victim == 0) ++thefts_from_straggler;
  }
  EXPECT_GE(thefts_from_straggler, 2)
      << "straggler should be re-victimized as it stays slowest";
  EXPECT_GT(r->stolen_morsels, 0);
}

TEST(FineRecoveryTest, ResizeArrivingMidRecovery) {
  // A node crashes, another leaves gracefully, and a fresh node joins
  // while the crash recovery is still in flight. The same checkpoint /
  // steal machinery absorbs all three.
  cluster::ResizePlan resize;
  resize.events.push_back({0.2, -1, true});  // join early
  resize.events.push_back({0.5, 2, false});  // node 2 leaves mid-run
  const auto clean = RunFine(1, cluster::FaultPlan{});
  ASSERT_TRUE(clean.ok());
  const auto r = RunFine(1, cluster::FaultPlan::Crash({1}), resize);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectBitIdentical(ToRefResult(r->result), ToRefResult(clean->result));
  EXPECT_EQ(r->joins, 1);
  EXPECT_EQ(r->leaves, 1);
  EXPECT_EQ(r->nodes_failed, 1);
  bool joiner_worked = false;
  for (const auto& a : r->attempts) {
    if (a.node >= kNodes) joiner_worked = true;
  }
  EXPECT_TRUE(joiner_worked) << "the joining node should pick up work";
}

TEST(FineRecoveryTest, SameInputsSameSchedule) {
  const auto plan = cluster::FaultPlan::Generate(11, kNodes);
  const auto resize = cluster::ResizePlan::Generate(11, kNodes);
  const auto a = RunFine(3, plan, resize);
  const auto b = RunFine(3, plan, resize);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->total_seconds, b->total_seconds);
  EXPECT_EQ(a->max_node_seconds, b->max_node_seconds);
  EXPECT_EQ(a->steals, b->steals);
  EXPECT_EQ(a->stolen_morsels, b->stolen_morsels);
  EXPECT_EQ(a->checkpoints, b->checkpoints);
  EXPECT_EQ(a->checkpoint_bytes, b->checkpoint_bytes);
  EXPECT_EQ(a->recovered_morsels, b->recovered_morsels);
  ASSERT_EQ(a->attempts.size(), b->attempts.size());
  for (size_t i = 0; i < a->attempts.size(); ++i) {
    EXPECT_EQ(a->attempts[i].node, b->attempts[i].node);
    EXPECT_EQ(a->attempts[i].morsel_begin, b->attempts[i].morsel_begin);
    EXPECT_EQ(a->attempts[i].morsel_end, b->attempts[i].morsel_end);
    EXPECT_EQ(a->attempts[i].start_seconds, b->attempts[i].start_seconds);
    EXPECT_EQ(a->attempts[i].stolen, b->attempts[i].stolen);
  }
  ExpectBitIdentical(ToRefResult(a->result), ToRefResult(b->result));
}

TEST(FineRecoveryTest, MiniChaosSweepStaysExact) {
  // The in-process miniature of bench_chaos: seed-derived fault and resize
  // plans together, rotating over the distributed subset.
  const auto qs = std::vector<int>(
      tpch::kSf10Queries, tpch::kSf10Queries + tpch::kNumSf10Queries);
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const int q = qs[seed % qs.size()];
    SCOPED_TRACE("seed " + std::to_string(seed) + " Q" + std::to_string(q));
    const auto clean = RunFine(q, cluster::FaultPlan{});
    ASSERT_TRUE(clean.ok());
    const auto r = RunFine(q, cluster::FaultPlan::Generate(seed, kNodes),
                           cluster::ResizePlan::Generate(seed, kNodes));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectBitIdentical(ToRefResult(r->result), ToRefResult(clean->result));
  }
}

// ---- the modeled scheduler in isolation (synthetic inputs) ----

cluster::FineInputs SyntheticInputs() {
  cluster::FineInputs in;
  in.pool_nodes = 4;
  for (int p = 0; p < 4; ++p) {
    in.work_s.push_back(1.0 + 0.1 * p);
    in.spill_s.push_back(0.0);
    in.morsels.push_back(16);
    in.partial_bytes.push_back(4096.0);
  }
  in.opts.mode = cluster::RecoveryMode::kFineGrained;
  in.opts.checkpoint_interval = 4;
  return in;
}

// The §14 checkpoint boundary rule: every morsel is acknowledged by
// exactly one checkpoint publish, so per partition the published morsels
// sum to the partition's morsel count — under any fault or resize plan.
void ExpectCheckpointInvariant(const cluster::FineSchedule& s,
                               const cluster::FineInputs& in) {
  std::vector<int> acked(in.morsels.size(), 0);
  for (const auto& ck : s.checkpoints) acked[ck.partition] += ck.morsels;
  for (size_t p = 0; p < in.morsels.size(); ++p) {
    EXPECT_EQ(acked[p], in.morsels[p]) << "partition " << p;
  }
  // OK segments tile each partition exactly: no morsel executed twice
  // successfully, none missing.
  for (size_t p = 0; p < in.morsels.size(); ++p) {
    std::vector<int> covered(in.morsels[p], 0);
    for (const auto& seg : s.segments) {
      if (seg.partition != static_cast<int>(p)) continue;
      if (seg.outcome != StatusCode::kOk) continue;
      for (int m = seg.begin; m < seg.end; ++m) ++covered[m];
    }
    for (int m = 0; m < in.morsels[p]; ++m) {
      EXPECT_EQ(covered[m], 1) << "partition " << p << " morsel " << m;
    }
  }
}

TEST(FineScheduleTest, CheckpointInvariantUnderChaos) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    cluster::FineInputs in = SyntheticInputs();
    const auto faults = cluster::FaultPlan::Generate(seed, in.pool_nodes);
    const auto resize = cluster::ResizePlan::Generate(seed, in.pool_nodes);
    in.faults = &faults;
    in.resize = &resize;
    const auto s = cluster::SimulateFineGrained(in);
    ASSERT_TRUE(s.completed);
    ExpectCheckpointInvariant(s, in);
  }
}

TEST(FineScheduleTest, StealingShortensTheStragglerTail) {
  cluster::FineInputs in = SyntheticInputs();
  const auto slow = cluster::FaultPlan::Slowdown(0, 8.0);
  in.faults = &slow;
  const auto with_steal = cluster::SimulateFineGrained(in);
  in.opts.steal = false;
  const auto without = cluster::SimulateFineGrained(in);
  ASSERT_TRUE(with_steal.completed);
  ASSERT_TRUE(without.completed);
  EXPECT_GT(with_steal.stolen_morsels, 0);
  EXPECT_EQ(without.stolen_morsels, 0);
  // This is the point of the tentpole: theft beats waiting out an 8x
  // straggler by a wide margin.
  EXPECT_LT(with_steal.makespan_s, 0.7 * without.makespan_s);
  ExpectCheckpointInvariant(with_steal, in);
  ExpectCheckpointInvariant(without, in);
}

TEST(FineScheduleTest, CrashLosesOnlyUncheckpointedMorsels) {
  cluster::FineInputs in = SyntheticInputs();
  const auto crash = cluster::FaultPlan::Crash({0});
  in.faults = &crash;
  const auto s = cluster::SimulateFineGrained(in);
  ASSERT_TRUE(s.completed);
  EXPECT_EQ(s.nodes_failed, 1);
  // With interval 4, at most interval un-acknowledged morsels can be in
  // flight when the crash lands — the whole-partition retry path would
  // have re-executed all 16.
  EXPECT_GT(s.recovered_morsels, 0);
  EXPECT_LE(s.recovered_morsels, in.opts.checkpoint_interval);
  ExpectCheckpointInvariant(s, in);
}

TEST(FineScheduleTest, UnrecoverableWhenEveryoneDies) {
  cluster::FineInputs in = SyntheticInputs();
  const auto all = cluster::FaultPlan::Crash({0, 1, 2, 3});
  in.faults = &all;
  const auto s = cluster::SimulateFineGrained(in);
  EXPECT_FALSE(s.completed);
  // ...unless a joiner arrives to pick up the pieces.
  const auto rescue = cluster::ResizePlan::Join(0.6);
  in.resize = &rescue;
  const auto saved = cluster::SimulateFineGrained(in);
  EXPECT_TRUE(saved.completed);
  EXPECT_EQ(saved.joins, 1);
  ExpectCheckpointInvariant(saved, in);
}

}  // namespace
}  // namespace wimpi
