// Cancellation at every pipeline boundary of every TPC-H query: a query
// whose token fires either throws parallel::Cancelled or returns exactly
// the answer of an uncancelled run — never a partial answer, a crash or a
// hang. The sweep fires the token before the query starts, and then
// before, and inside the first morsel of, each of the k pipelines an
// uncancelled run hands to its scheduler, at 1 and at 4 threads with
// small morsels (so the 4-thread runs really fan out at SF 0.01).
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/query_result.h"
#include "exec/exec_options.h"
#include "gtest/gtest.h"
#include "parallel/cancellation.h"
#include "parallel/pipeline.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi {
namespace {

const engine::Database& TestDb() {
  static engine::Database* db = [] {
    tpch::GenOptions opts;
    opts.scale_factor = 0.01;
    return new engine::Database(tpch::GenerateDatabase(opts));
  }();
  return *db;
}

// Hands every pipeline on to the default scheduler and fires `token` at
// the fire_at-th one (never when fire_at is 0): before the pipeline
// starts, or from inside its first morsel to run.
class FiringScheduler : public parallel::PipelineScheduler {
 public:
  FiringScheduler(parallel::CancellationToken* token, int64_t fire_at,
                  bool inside)
      : token_(token), fire_at_(fire_at), inside_(inside) {}

  void RunPipeline(const parallel::PipelineSpec& spec) override {
    if (++calls_ != fire_at_) {
      return parallel::PipelineScheduler::Default().RunPipeline(spec);
    }
    if (!inside_) {
      token_->Cancel();
      return parallel::PipelineScheduler::Default().RunPipeline(spec);
    }
    const std::function<void(const parallel::Morsel&)> body =
        [this, &spec](const parallel::Morsel& m) {
          token_->Cancel();
          (*spec.body)(m);
        };
    parallel::PipelineSpec firing = spec;
    firing.body = &body;
    parallel::PipelineScheduler::Default().RunPipeline(firing);
  }

  int64_t calls() const { return calls_; }

 private:
  parallel::CancellationToken* token_;
  int64_t fire_at_;
  bool inside_;
  int64_t calls_ = 0;
};

// Query q's answer under `opts`, or nullopt when it threw Cancelled.
std::optional<std::vector<std::string>> AnswerOrCancelled(
    int q, const exec::ExecOptions& opts) {
  exec::ScopedExecOptions scoped(opts);
  try {
    return engine::FormatRelation(tpch::RunQuery(q, TestDb(), nullptr),
                                  /*double_digits=*/17);
  } catch (const parallel::Cancelled&) {
    return std::nullopt;
  }
}

class CancelSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CancelSweepTest, EveryRunThrowsOrAnswersInFull) {
  const int q = GetParam();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    exec::ExecOptions opts;
    opts.num_threads = threads;
    opts.morsel_rows = 4096;

    // The uncancelled answer, and how many pipelines it takes.
    FiringScheduler counter(nullptr, 0, false);
    opts.pipeline_scheduler = &counter;
    const auto expected = AnswerOrCancelled(q, opts);
    ASSERT_TRUE(expected.has_value());
    ASSERT_GT(counter.calls(), 0);

    // A token that fired before the query started stops its first phase.
    parallel::CancellationToken token;
    token.Cancel();
    opts.cancellation = &token;
    opts.pipeline_scheduler = nullptr;
    EXPECT_FALSE(AnswerOrCancelled(q, opts).has_value());

    for (const bool inside : {false, true}) {
      for (int64_t k = 1; k <= counter.calls(); ++k) {
        SCOPED_TRACE(std::string(inside ? "inside" : "before") +
                     " pipeline " + std::to_string(k));
        token.Reset();
        FiringScheduler firing(&token, k, inside);
        opts.pipeline_scheduler = &firing;
        const auto got = AnswerOrCancelled(q, opts);
        if (got.has_value()) {
          ASSERT_EQ(*got, *expected);
        }
        // Firing before a pipeline starts stops that very pipeline.
        if (!inside) {
          ASSERT_FALSE(got.has_value());
          ASSERT_EQ(firing.calls(), k);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, CancelSweepTest, ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace wimpi
