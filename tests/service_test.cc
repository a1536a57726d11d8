// Concurrent query service: answer identity under concurrency, admission
// control edge cases, cancellation/timeout semantics, fair-scheduler stride
// accounting, and a deterministic many-sessions stress run (exercised under
// TSan by scripts/check_tsan.sh).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "exec/exec_options.h"
#include "exec/morsel_exec.h"
#include "gtest/gtest.h"
#include "obs/flight/flight_recorder.h"
#include "obs/flight/slow_query_log.h"
#include "obs/metrics.h"
#include "parallel/fair_scheduler.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

using service::ClientSession;
using service::QueryService;
using service::QuerySpec;
using service::QueryTicket;
using service::ServiceOptions;

const engine::Database& TestDb() {
  static engine::Database* db = nullptr;
  if (db == nullptr) {
    tpch::GenOptions opts;
    opts.scale_factor = 0.01;
    db = new engine::Database(tpch::GenerateDatabase(opts));
  }
  return *db;
}

// Exact (bit-level) relation comparison; the service guarantees answers
// identical to isolated execution, not merely numerically equal ones.
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

QuerySpec TpchSpec(int q, const engine::Database& db) {
  QuerySpec spec;
  spec.label = "q" + std::to_string(q);
  spec.plan = [q, &db](exec::QueryStats* stats) {
    return tpch::RunQuery(q, db, stats);
  };
  return spec;
}

// All 22 TPC-H queries submitted at once: every answer the service hands
// back must be bit-identical to the same plan run in isolation, no matter
// how the fair scheduler interleaved the queries' morsels.
TEST(QueryServiceTest, AnswersMatchIsolatedExecutionForAllQueries) {
  const engine::Database& db = TestDb();

  std::vector<exec::Relation> isolated;
  for (int q = 1; q <= 22; ++q) {
    engine::Executor ex;
    ex.set_num_threads(4);
    ex.set_morsel_rows(4096);  // real fan-out even at SF 0.01
    isolated.push_back(
        ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); }));
  }

  ServiceOptions opts;
  opts.max_active = 3;
  opts.query_threads = 4;
  opts.morsel_rows = 4096;
  QueryService svc(opts);
  std::vector<QueryTicket> tickets;
  for (int q = 1; q <= 22; ++q) tickets.push_back(svc.Submit(TpchSpec(q, db)));
  for (int q = 1; q <= 22; ++q) {
    SCOPED_TRACE("q" + std::to_string(q));
    const Status status = tickets[q - 1].Wait();
    ASSERT_TRUE(status.ok()) << status.ToString();
    const exec::Relation got = tickets[q - 1].TakeResult();
    ExpectRelationsIdentical(got, isolated[q - 1]);
  }
}

TEST(QueryServiceTest, QueryOverWholeBudgetRejectedImmediately) {
  ServiceOptions opts;
  opts.budget_bytes = 1 << 20;
  QueryService svc(opts);
  QuerySpec spec;
  spec.label = "oversized";
  spec.plan = [](exec::QueryStats*) { return exec::Relation(); };
  spec.estimated_bytes = (1 << 20) + 1;
  QueryTicket t = svc.Submit(std::move(spec));
  // Not queued forever: the ticket is already finalized.
  EXPECT_TRUE(t.Done());
  EXPECT_EQ(t.Wait().code(), StatusCode::kResourceExhausted);
}

// A plan that blocks until released, so tests can pin the service's only
// driver and exercise the queue behind it.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  bool entered = false;

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
  QuerySpec BlockingSpec() {
    QuerySpec spec;
    spec.label = "blocking";
    spec.plan = [this](exec::QueryStats*) {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return open; });
      return exec::Relation();
    };
    return spec;
  }
};

TEST(QueryServiceTest, QueueOverflowRejected) {
  ServiceOptions opts;
  opts.max_active = 1;
  opts.max_queue = 1;
  QueryService svc(opts);
  Latch latch;
  QueryTicket running = svc.Submit(latch.BlockingSpec());
  latch.WaitEntered();

  QuerySpec q2;
  q2.plan = [](exec::QueryStats*) { return exec::Relation(); };
  QueryTicket queued = svc.Submit(std::move(q2));
  EXPECT_FALSE(queued.Done());

  QuerySpec q3;
  q3.plan = [](exec::QueryStats*) { return exec::Relation(); };
  QueryTicket overflow = svc.Submit(std::move(q3));
  EXPECT_EQ(overflow.Wait().code(), StatusCode::kResourceExhausted);

  latch.Open();
  EXPECT_TRUE(running.Wait().ok());
  EXPECT_TRUE(queued.Wait().ok());
}

TEST(QueryServiceTest, CancelWhileQueued) {
  ServiceOptions opts;
  opts.max_active = 1;
  QueryService svc(opts);
  Latch latch;
  QueryTicket running = svc.Submit(latch.BlockingSpec());
  latch.WaitEntered();

  QuerySpec q;
  q.plan = [](exec::QueryStats*) { return exec::Relation(); };
  QueryTicket queued = svc.Submit(std::move(q));
  EXPECT_FALSE(queued.Done());
  queued.Cancel();
  EXPECT_EQ(queued.Wait().code(), StatusCode::kCancelled);

  latch.Open();
  EXPECT_TRUE(running.Wait().ok());
}

// A morsel-parallel plan whose total work is far longer than any test
// budget: cancellation (or the deadline) must stop it early by skipping
// the remaining dispatches.
QuerySpec SlowMorselSpec(std::atomic<bool>* started) {
  QuerySpec spec;
  spec.label = "slow";
  spec.plan = [started](exec::QueryStats*) {
    const int64_t rows = 64 * 2048;  // 2048 morsels at morsel_rows=64
    for (int iter = 0; iter < 1000; ++iter) {
      const auto* cancel = exec::CurrentExecOptions().cancellation;
      if (cancel != nullptr && cancel->cancelled()) break;
      exec::RunMorsels(rows, exec::PlannedThreads(rows),
                       [&](const parallel::Morsel&) {
                         started->store(true, std::memory_order_relaxed);
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(1));
                       });
    }
    return exec::Relation();
  };
  return spec;
}

TEST(QueryServiceTest, CancelMidPipelineReturnsPromptly) {
  ServiceOptions opts;
  opts.max_active = 1;
  opts.query_threads = 4;
  opts.morsel_rows = 64;
  QueryService svc(opts);
  std::atomic<bool> started{false};
  QueryTicket t = svc.Submit(SlowMorselSpec(&started));
  while (!started.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.Cancel();
  // Total work is ~2000 seconds of sleeps; a prompt cancel finishes the
  // Wait in test time, and the result is discarded.
  EXPECT_EQ(t.Wait().code(), StatusCode::kCancelled);
}

TEST(QueryServiceTest, TimeoutFiresDeadlineExceeded) {
  ServiceOptions opts;
  opts.max_active = 1;
  opts.query_threads = 4;
  opts.morsel_rows = 64;
  QueryService svc(opts);
  std::atomic<bool> started{false};
  QuerySpec spec = SlowMorselSpec(&started);
  spec.timeout_us = 50 * 1000;
  QueryTicket t = svc.Submit(std::move(spec));
  EXPECT_EQ(t.Wait().code(), StatusCode::kDeadlineExceeded);
}

// At one thread every phase runs inline on the driver; the lane deadline
// is still checked at each phase start, so the query times out instead of
// running all of its ~1 s of one-morsel phases.
TEST(QueryServiceTest, TimeoutFiresDeadlineExceededAtOneThread) {
  ServiceOptions opts;
  opts.max_active = 1;
  opts.query_threads = 1;
  opts.morsel_rows = 64;
  QueryService svc(opts);
  std::atomic<bool> started{false};
  QuerySpec spec = SlowMorselSpec(&started);
  spec.timeout_us = 50 * 1000;
  QueryTicket t = svc.Submit(std::move(spec));
  EXPECT_EQ(t.Wait().code(), StatusCode::kDeadlineExceeded);
}

// Stride accounting: after running pipelines on lanes of different
// priority, each lane's pass advanced by tasks * (base / priority), so the
// high-priority lane's pass trails the low-priority one for the same work.
TEST(FairPipelineSchedulerTest, StrideAccountsPassByPriority) {
  parallel::ThreadPool pool(2);
  parallel::FairPipelineScheduler sched(&pool);
  parallel::CancellationToken c1, c2;
  const int lane1 = sched.OpenLane(1.0, &c1);
  const int lane2 = sched.OpenLane(2.0, &c2);

  std::atomic<int64_t> count{0};
  const std::function<void(const parallel::Morsel&)> body =
      [&](const parallel::Morsel&) {
        count.fetch_add(1, std::memory_order_relaxed);
      };
  parallel::PipelineSpec spec;
  spec.total_rows = 8 * 64;
  spec.morsel_rows = 64;  // 8 morsels
  spec.max_threads = 2;
  spec.body = &body;
  sched.RunPipeline(lane1, spec);
  sched.RunPipeline(lane2, spec);
  EXPECT_EQ(count.load(), 16);

  const auto passes = sched.LanePassesForTest();
  EXPECT_DOUBLE_EQ(passes.at(lane1), 8 * parallel::kStrideBase);
  EXPECT_DOUBLE_EQ(passes.at(lane2), 8 * parallel::kStrideBase / 2.0);

  parallel::LaneUsage usage;
  sched.CloseLane(lane1, &usage);
  EXPECT_EQ(usage.pipelines, 1);
  EXPECT_EQ(usage.tasks, 8);
  EXPECT_EQ(usage.rows, 8 * 64);
  sched.CloseLane(lane2);
}

// spec.cancel is honoured on its own: a pipeline token other than the
// lane's stops the pipeline's unclaimed morsels on the parallel path, the
// call throws Cancelled, and the lane itself stays live.
TEST(FairPipelineSchedulerTest, PipelineTokenSkipsUnclaimedMorsels) {
  parallel::ThreadPool pool(4);
  parallel::FairPipelineScheduler sched(&pool);
  parallel::CancellationToken lane_token, pipeline_token;
  const int lane = sched.OpenLane(1.0, &lane_token);

  constexpr int kMorsels = 4096;
  std::atomic<int> ran{0};
  const std::function<void(const parallel::Morsel&)> body =
      [&](const parallel::Morsel& m) {
        ran.fetch_add(1);
        if (m.index == 3) pipeline_token.Cancel();
      };
  parallel::PipelineSpec spec;
  spec.total_rows = kMorsels;
  spec.morsel_rows = 1;
  spec.max_threads = 4;
  spec.body = &body;
  spec.cancel = &pipeline_token;
  EXPECT_THROW(sched.RunPipeline(lane, spec), parallel::Cancelled);
  EXPECT_GE(ran.load(), 4);
  EXPECT_LT(ran.load(), kMorsels);
  EXPECT_FALSE(lane_token.cancelled());
  // The lane runs a fresh pipeline to completion.
  pipeline_token.Reset();
  ran.store(0);
  const std::function<void(const parallel::Morsel&)> count =
      [&](const parallel::Morsel&) { ran.fetch_add(1); };
  spec.total_rows = 64;
  spec.body = &count;
  sched.RunPipeline(lane, spec);
  EXPECT_EQ(ran.load(), 64);
  sched.CloseLane(lane);
}

TEST(AdmissionControllerTest, ReserveReleaseAndFitsBudget) {
  service::AdmissionController ac({1000});
  EXPECT_FALSE(ac.FitsBudget(1001));
  EXPECT_TRUE(ac.FitsBudget(1000));
  EXPECT_TRUE(ac.TryReserve(600));
  EXPECT_FALSE(ac.TryReserve(600));
  EXPECT_TRUE(ac.TryReserve(400));
  ac.Release(600);
  EXPECT_TRUE(ac.TryReserve(500));
  ac.Release(400);
  ac.Release(500);
  EXPECT_EQ(ac.reserved_bytes(), 0);
  EXPECT_LE(ac.peak_reserved_bytes(), 1000);
}

// Deterministic many-sessions stress: hundreds of closed-loop sessions,
// mixed priorities, a budget small enough to force queueing, a sprinkle of
// rejects and cancels. Invariants: every ticket reaches a terminal status,
// the terminal counts add up, all reservations are returned, and the peak
// reservation never exceeded the budget.
TEST(QueryServiceTest, ManySessionsStress) {
  constexpr int kSessions = 96;
  constexpr int kQueriesPerSession = 4;
  constexpr int64_t kBudget = 1 << 20;

  ServiceOptions opts;
  opts.budget_bytes = kBudget;
  opts.max_active = 4;
  opts.max_queue = kSessions * kQueriesPerSession;
  opts.query_threads = 2;
  opts.morsel_rows = 256;
  QueryService svc(opts);

  std::atomic<int64_t> total_sum{0};
  auto make_spec = [&](int session, int i) {
    QuerySpec spec;
    spec.label = "s" + std::to_string(session) + "." + std::to_string(i);
    spec.priority = 1.0 + (session % 4);
    // Most queries fit; every 17th can never fit and must be rejected.
    spec.estimated_bytes =
        ((session * kQueriesPerSession + i) % 17 == 0) ? kBudget + 1
                                                       : kBudget / 8;
    const int64_t rows = 256 * 8;  // 8 morsels
    spec.plan = [&total_sum, rows](exec::QueryStats*) {
      std::atomic<int64_t> local{0};
      exec::RunMorsels(rows, exec::PlannedThreads(rows),
                       [&](const parallel::Morsel& m) {
                         local.fetch_add(m.rows(), std::memory_order_relaxed);
                       });
      total_sum.fetch_add(local.load(), std::memory_order_relaxed);
      return exec::Relation();
    };
    return spec;
  };

  std::vector<std::vector<QueryTicket>> tickets(kSessions);
  {
    // 8 submitter threads multiplex the sessions (sessions are objects,
    // not threads).
    std::vector<std::thread> submitters;
    std::mutex tickets_mu;
    for (int s = 0; s < 8; ++s) {
      submitters.emplace_back([&, s] {
        for (int session = s; session < kSessions; session += 8) {
          ClientSession client(&svc, "sess" + std::to_string(session));
          std::vector<QueryTicket> mine;
          for (int i = 0; i < kQueriesPerSession; ++i) {
            mine.push_back(client.Submit(make_spec(session, i)));
          }
          std::lock_guard<std::mutex> lock(tickets_mu);
          tickets[session] = std::move(mine);
        }
      });
    }
    for (auto& t : submitters) t.join();
  }

  int ok = 0, rejected = 0, other = 0;
  for (auto& session_tickets : tickets) {
    ASSERT_EQ(session_tickets.size(), size_t{kQueriesPerSession});
    for (auto& t : session_tickets) {
      const Status status = t.Wait();
      if (status.ok()) {
        ++ok;
      } else if (status.code() == StatusCode::kResourceExhausted) {
        ++rejected;
      } else {
        ++other;
      }
    }
  }
  const int total = kSessions * kQueriesPerSession;
  EXPECT_EQ(ok + rejected + other, total);
  EXPECT_EQ(other, 0);
  // ceil(384 / 17) = 23 oversized submissions.
  EXPECT_EQ(rejected, (total + 16) / 17);
  EXPECT_EQ(total_sum.load(), static_cast<int64_t>(ok) * 256 * 8);
  EXPECT_EQ(svc.admission().reserved_bytes(), 0);
  EXPECT_LE(svc.admission().tracker().peak(), kBudget);
}

// Identity matrix across observability configs (ISSUE #7): the flight
// recorder off, and the recorder on with a 1us SLO whose latency trigger
// fires on every query, must not perturb a single bit of any answer.
TEST(QueryServiceTest, AnswersIdenticalAcrossFlightAndSloConfigs) {
  const engine::Database& db = TestDb();

  std::vector<exec::Relation> isolated;
  for (int q = 1; q <= 22; ++q) {
    engine::Executor ex;
    ex.set_num_threads(4);
    ex.set_morsel_rows(4096);
    isolated.push_back(
        ex.Run([&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); }));
  }

  auto& recorder = obs::flight::FlightRecorder::Global();
  const int64_t slow_before = obs::flight::SlowQueryLog::Global().total();
  for (const bool flight_on : {false, true}) {
    SCOPED_TRACE(flight_on ? "flight on + 1us SLO" : "flight off");
    recorder.set_enabled(flight_on);
    ServiceOptions opts;
    opts.max_active = 3;
    opts.query_threads = 4;
    opts.morsel_rows = 4096;
    if (flight_on) {
      opts.slo.default_objective_us = 1;  // every query misses -> triggers
      opts.flight.latency_threshold_us = 1;
    }
    QueryService svc(opts);
    std::vector<QueryTicket> tickets;
    for (int q = 1; q <= 22; ++q) {
      tickets.push_back(svc.Submit(TpchSpec(q, db)));
    }
    for (int q = 1; q <= 22; ++q) {
      SCOPED_TRACE("q" + std::to_string(q));
      const Status status = tickets[q - 1].Wait();
      ASSERT_TRUE(status.ok()) << status.ToString();
      ExpectRelationsIdentical(tickets[q - 1].TakeResult(), isolated[q - 1]);
    }
  }
  recorder.set_enabled(true);  // restore the always-on default
  // The 1us objective made every query of the second config a slow query.
  EXPECT_GE(obs::flight::SlowQueryLog::Global().total() - slow_before, 22);
}

// Per-query resource accounting (ISSUE #7): a known morsel plan yields
// exact pipeline/task/row counts and a consistent CPU-time breakdown.
TEST(QueryServiceTest, ResourceReportAccountsWork) {
  ServiceOptions opts;
  opts.max_active = 1;
  opts.query_threads = 2;
  opts.morsel_rows = 256;
  QueryService svc(opts);

  QuerySpec spec;
  spec.label = "acct";
  const int64_t rows = 256 * 8;  // 8 morsels
  spec.plan = [rows](exec::QueryStats*) {
    exec::RunMorsels(rows, exec::PlannedThreads(rows),
                     [](const parallel::Morsel&) {
                       // Burn a little CPU so the thread clock moves.
                       volatile double x = 0;
                       for (int i = 0; i < 50000; ++i) x = x + i;
                       (void)x;
                     });
    return exec::Relation();
  };
  QueryTicket t = svc.Submit(std::move(spec));
  ASSERT_TRUE(t.Wait().ok());

  const obs::flight::QueryResourceReport& r = t.resources();
  EXPECT_EQ(r.query_id, t.query_id());
  EXPECT_GT(r.query_id, 0u);
  EXPECT_GT(r.wall_us, 0);
  EXPECT_GE(r.wall_us, r.exec_us);
  EXPECT_EQ(r.pipelines, 1);
  EXPECT_EQ(r.tasks, 8);
  EXPECT_EQ(r.rows, rows);
  EXPECT_GT(r.cpu_us, 0);
  EXPECT_EQ(r.cpu_us, r.driver_cpu_us + r.worker_cpu_us);
  EXPECT_EQ(r.threads, 2);
}

// Queue-wait accounting for tickets that never run (ISSUE #7 satellite):
// a query cancelled while queued still records its time-in-queue, both on
// the ticket and in the service.queue_wait_us histogram.
TEST(QueryServiceTest, QueueWaitRecordedForCancelledWhileQueued) {
  auto& wait_h =
      obs::MetricsRegistry::Global().histogram("service.queue_wait_us");
  const int64_t count_before = wait_h.Count();

  ServiceOptions opts;
  opts.max_active = 1;
  QueryService svc(opts);
  Latch latch;
  QueryTicket running = svc.Submit(latch.BlockingSpec());
  latch.WaitEntered();

  QuerySpec q;
  q.plan = [](exec::QueryStats*) { return exec::Relation(); };
  QueryTicket queued = svc.Submit(std::move(q));
  EXPECT_FALSE(queued.Done());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queued.Cancel();
  EXPECT_EQ(queued.Wait().code(), StatusCode::kCancelled);

  // The whole queued lifetime counts as queue wait.
  EXPECT_GT(queued.queue_wait_us(), 0);
  EXPECT_EQ(queued.resources().queue_wait_us, queued.resources().wall_us);
  EXPECT_GE(wait_h.Count(), count_before + 1);

  latch.Open();
  EXPECT_TRUE(running.Wait().ok());
}

// Destruction drains: queued work still completes, and submits racing the
// shutdown either run or come back kUnavailable — never hang.
TEST(QueryServiceTest, DestructorDrainsQueuedWork) {
  std::vector<QueryTicket> tickets;
  std::atomic<int> ran{0};
  {
    ServiceOptions opts;
    opts.max_active = 2;
    QueryService svc(opts);
    for (int i = 0; i < 16; ++i) {
      QuerySpec spec;
      spec.plan = [&ran](exec::QueryStats*) {
        ran.fetch_add(1, std::memory_order_relaxed);
        return exec::Relation();
      };
      tickets.push_back(svc.Submit(std::move(spec)));
    }
  }
  for (auto& t : tickets) EXPECT_TRUE(t.Wait().ok());
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace wimpi
