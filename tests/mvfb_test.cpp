// Unit tests for the MVFB placer (§IV.A) and the Monte Carlo baseline.
#include <gtest/gtest.h>

#include "circuit/dependency_graph.hpp"
#include "common/cancel.hpp"
#include "core/monte_carlo.hpp"
#include "core/mvfb.hpp"
#include "core/placer.hpp"
#include "core/scheduler.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"
#include "sim/trace_validator.hpp"

namespace qspr {
namespace {

class MvfbTest : public ::testing::Test {
 protected:
  MvfbTest()
      : fabric_(make_quale_fabric({4, 4, 4})),
        routing_(fabric_),
        program_(make_encoder(QeccCode::Q5_1_3)),
        graph_(DependencyGraph::build(program_)),
        rank_(make_schedule_rank(graph_, TechnologyParams{})) {}

  Fabric fabric_;
  RoutingGraph routing_;
  Program program_;
  DependencyGraph graph_;
  std::vector<int> rank_;
  ExecutionOptions exec_;
};

TEST_F(MvfbTest, ProducesAValidatedForwardTrace) {
  MvfbPlacer placer(graph_, fabric_, routing_, rank_, exec_,
                    MvfbOptions{4, 3, 64, 1});
  const MvfbResult result = placer.place_and_execute();

  ASSERT_LT(result.best_latency, kInfiniteDuration);
  EXPECT_EQ(result.best_latency, result.best_trace.makespan());
  // The reported trace must be a physically consistent *forward* execution
  // from the reported initial placement — this is the §IV.A reversal claim.
  const auto violations = validate_trace(result.best_trace, graph_, fabric_,
                                         result.best_initial_placement,
                                         exec_.tech);
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, e.g. "
                                  << (violations.empty() ? "" : violations[0]);
}

TEST_F(MvfbTest, BeatsOrMatchesSingleCenterPlacement) {
  MvfbPlacer placer(graph_, fabric_, routing_, rank_, exec_,
                    MvfbOptions{6, 3, 64, 1});
  const MvfbResult result = placer.place_and_execute();

  EventSimulator sim(graph_, fabric_, routing_, rank_, exec_);
  const ExecutionResult center =
      sim.run(center_placement(fabric_, graph_.qubit_count()));
  EXPECT_LE(result.best_latency, center.latency);
  EXPECT_GE(result.best_latency,
            graph_.critical_path_latency(exec_.tech));  // ideal lower bound
}

TEST_F(MvfbTest, RunCountsFollowTheStopRule) {
  const int seeds = 5;
  MvfbPlacer placer(graph_, fabric_, routing_, rank_, exec_,
                    MvfbOptions{seeds, 3, 64, 1});
  const MvfbResult result = placer.place_and_execute();
  // Every seed performs at least stop_after runs before giving up.
  EXPECT_GE(result.total_runs, seeds * 3);
  EXPECT_LE(result.total_runs, seeds * 64);
  // Iterations are forward+backward pairs, so runs/2 rounded down.
  EXPECT_LE(result.total_iterations * 2, result.total_runs);
  EXPECT_GE(result.total_iterations * 2 + seeds, result.total_runs);
}

TEST_F(MvfbTest, DeterministicForFixedSeed) {
  MvfbPlacer a(graph_, fabric_, routing_, rank_, exec_,
               MvfbOptions{3, 3, 64, 99});
  MvfbPlacer b(graph_, fabric_, routing_, rank_, exec_,
               MvfbOptions{3, 3, 64, 99});
  const MvfbResult ra = a.place_and_execute();
  const MvfbResult rb = b.place_and_execute();
  EXPECT_EQ(ra.best_latency, rb.best_latency);
  EXPECT_EQ(ra.total_runs, rb.total_runs);
  EXPECT_EQ(ra.best_initial_placement, rb.best_initial_placement);
}

TEST_F(MvfbTest, MoreSeedsNeverHurt) {
  MvfbPlacer small(graph_, fabric_, routing_, rank_, exec_,
                   MvfbOptions{2, 3, 64, 5});
  MvfbPlacer large(graph_, fabric_, routing_, rank_, exec_,
                   MvfbOptions{10, 3, 64, 5});
  // Same RNG stream: the large run explores a superset of seeds.
  EXPECT_LE(large.place_and_execute().best_latency,
            small.place_and_execute().best_latency);
}

TEST_F(MvfbTest, RejectsBadOptions) {
  EXPECT_THROW(MvfbPlacer(graph_, fabric_, routing_, rank_, exec_,
                          MvfbOptions{0, 3, 64, 1}),
               Error);
  EXPECT_THROW(MvfbPlacer(graph_, fabric_, routing_, rank_, exec_,
                          MvfbOptions{1, 0, 64, 1}),
               Error);
  MvfbOptions no_runs;
  no_runs.max_runs_per_seed = 0;
  EXPECT_THROW(MvfbPlacer(graph_, fabric_, routing_, rank_, exec_, no_runs),
               Error);
}

TEST_F(MvfbTest, OneRunPerSeedIsAForwardOnlyMultiStart) {
  // max_runs_per_seed = 1 is the Monte Carlo placer: every seed is one
  // forward run from its random center placement, so the placer builds no
  // backward simulator and the winner is never a backward run.
  MvfbOptions one_run;
  one_run.seeds = 10;
  one_run.max_runs_per_seed = 1;
  MvfbPlacer placer(graph_, fabric_, routing_, rank_, exec_, one_run);
  const MvfbResult result = placer.place_and_execute();
  EXPECT_EQ(result.total_runs, 10);
  EXPECT_EQ(result.total_iterations, 0);
  EXPECT_FALSE(result.best_is_backward);
  EXPECT_EQ(result.best_initial_placement,
            result.best_execution.initial_placement);

  const MonteCarloResult mc = monte_carlo_place_and_execute(
      graph_, fabric_, routing_, rank_, exec_, 10, 1);
  EXPECT_EQ(mc.trials, 10);
  EXPECT_EQ(mc.best_latency, result.best_latency);
  EXPECT_EQ(mc.best_initial_placement, result.best_initial_placement);
  EXPECT_EQ(mc.best_execution.trace.to_string(), result.best_trace.to_string());
}

TEST_F(MvfbTest, BackwardWinnersReportReversedTraces) {
  // Run many seeds; whether the winner is forward or backward, the reported
  // artefacts must be mutually consistent.
  MvfbPlacer placer(graph_, fabric_, routing_, rank_, exec_,
                    MvfbOptions{8, 3, 64, 3});
  const MvfbResult result = placer.place_and_execute();
  EXPECT_EQ(result.best_trace.gate_count(), graph_.node_count());
  EXPECT_EQ(result.best_latency, result.best_execution.latency);
  if (result.best_is_backward) {
    EXPECT_EQ(result.best_initial_placement,
              result.best_execution.final_placement);
  } else {
    EXPECT_EQ(result.best_initial_placement,
              result.best_execution.initial_placement);
  }
}

TEST_F(MvfbTest, MergeHookRunsOnceWithTheResultCollectReturns) {
  // The body that finishes the last seed merges and calls the hook, so the
  // hook has run when the job ends, before anyone collects. Covered: an
  // MVFB run whose winner is a backward run (reversed in the merge) and a
  // Monte-Carlo run (one forward run per seed).
  MvfbOptions mvfb;
  mvfb.seeds = 8;
  mvfb.rng_seed = 4;
  MvfbOptions monte_carlo;
  monte_carlo.seeds = 10;
  monte_carlo.max_runs_per_seed = 1;
  for (const MvfbOptions& options : {mvfb, monte_carlo}) {
    const bool backward_winner = options.max_runs_per_seed > 1;
    SCOPED_TRACE(backward_winner ? "mvfb" : "monte carlo");
    MvfbPlacer placer(graph_, fabric_, routing_, rank_, exec_, options);
    Executor executor(3);
    int calls = 0;
    MvfbResult merged;
    MvfbPlacer::AsyncRun run =
        placer.submit(executor, [&](const MvfbResult& result) {
          ++calls;
          merged = result;
        });
    executor.wait(run.job());
    EXPECT_EQ(calls, 1);

    const MvfbResult collected = placer.collect(executor, run);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(collected.best_is_backward, backward_winner);
    EXPECT_EQ(merged.best_latency, collected.best_latency);
    EXPECT_EQ(merged.best_is_backward, collected.best_is_backward);
    EXPECT_EQ(merged.best_initial_placement, collected.best_initial_placement);
    EXPECT_EQ(merged.best_trace.to_string(), collected.best_trace.to_string());
    EXPECT_EQ(merged.best_execution.final_placement,
              collected.best_execution.final_placement);
    EXPECT_EQ(merged.total_runs, collected.total_runs);
    EXPECT_EQ(merged.total_iterations, collected.total_iterations);
    EXPECT_EQ(merged.trial_cpu_ms, collected.trial_cpu_ms);
  }
}

TEST_F(MvfbTest, CancelledRunNeverCallsTheMergeHook) {
  // A cancelled seed never counts as finished, so nothing merges and
  // collect() rethrows the cancellation.
  CancelSource source;
  source.request_cancel();
  MvfbOptions options;
  options.seeds = 4;
  options.cancel = source.token();
  MvfbPlacer placer(graph_, fabric_, routing_, rank_, exec_, options);
  Executor executor(2);
  int calls = 0;
  MvfbPlacer::AsyncRun run =
      placer.submit(executor, [&calls](const MvfbResult&) { ++calls; });
  EXPECT_THROW(placer.collect(executor, run), CancelledError);
  EXPECT_EQ(calls, 0);
}

TEST_F(MvfbTest, MonteCarloBaselineWorks) {
  const MonteCarloResult result = monte_carlo_place_and_execute(
      graph_, fabric_, routing_, rank_, exec_, 10, 1);
  EXPECT_EQ(result.trials, 10);
  ASSERT_LT(result.best_latency, kInfiniteDuration);
  EXPECT_GE(result.best_latency, graph_.critical_path_latency(exec_.tech));
  const auto violations =
      validate_trace(result.best_execution.trace, graph_, fabric_,
                     result.best_initial_placement, exec_.tech);
  EXPECT_TRUE(violations.empty());
}

TEST_F(MvfbTest, MonteCarloMoreTrialsNeverHurt) {
  const MonteCarloResult few = monte_carlo_place_and_execute(
      graph_, fabric_, routing_, rank_, exec_, 3, 7);
  const MonteCarloResult many = monte_carlo_place_and_execute(
      graph_, fabric_, routing_, rank_, exec_, 30, 7);
  EXPECT_LE(many.best_latency, few.best_latency);
  EXPECT_THROW(monte_carlo_place_and_execute(graph_, fabric_, routing_, rank_,
                                             exec_, 0, 1),
               Error);
}

}  // namespace
}  // namespace qspr
