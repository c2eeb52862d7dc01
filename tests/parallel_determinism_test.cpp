// The trial-parallel mapping pipeline's core contract: results are
// bit-identical at any worker count. Per-trial RNGs are forked up front by
// trial index and the winner is the (latency, trial index) minimum, so
// `--jobs 1` and `--jobs 4` must produce the same MapResult — latency,
// full control trace, initial placement — for both the MVFB and the
// Monte-Carlo flows. Also unit-tests the shared Executor the flows run on
// (submit/wait, cross-job interleaving, per-job error capture) and its
// blocking run() loop.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/executor.hpp"
#include "core/mapper.hpp"
#include "core/monte_carlo.hpp"
#include "core/mvfb.hpp"
#include "core/scheduler.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"

namespace qspr {
namespace {

// ---------------------------------------------------------------------------
// Executor::run: the blocking one-loop shape
// ---------------------------------------------------------------------------

TEST(ExecutorRun, RunsEveryIndexExactlyOnce) {
  Executor pool(4);
  EXPECT_EQ(pool.worker_count(), 4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run(kCount, [&](std::size_t index, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    hits[index].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorRun, SingleWorkerRunsInOrder) {
  Executor pool(1);
  std::vector<std::size_t> order;
  pool.run(64, [&](std::size_t index, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(index);
  });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ExecutorRun, ReusableAcrossJobsAndEmptyJobsAreNoops) {
  Executor pool(3);
  std::atomic<int> total{0};
  pool.run(0, [&](std::size_t, int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 0);
  for (int round = 0; round < 5; ++round) {
    pool.run(10, [&](std::size_t, int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ExecutorRun, PropagatesBodyExceptions) {
  Executor pool(4);
  EXPECT_THROW(pool.run(
                   100,
                   [&](std::size_t index, int) {
                     if (index == 42) throw std::runtime_error("trial failed");
                   }),
               std::runtime_error);
  // The pool stays usable after a failed job.
  std::atomic<int> total{0};
  pool.run(8, [&](std::size_t, int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 8);
}

TEST(ExecutorRun, RejectsZeroWorkers) {
  EXPECT_THROW(Executor(0), Error);
}

// ---------------------------------------------------------------------------
// Executor: the submit/wait layer under the pool and the batch service
// ---------------------------------------------------------------------------

TEST(ExecutorTest, SubmitThenWaitRunsEveryIndexOnce) {
  Executor executor(4);
  constexpr std::size_t kCount = 200;
  std::vector<std::atomic<int>> hits(kCount);
  Executor::Job job =
      executor.submit(kCount, [&](std::size_t index, int worker) {
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, 4);
        hits[index].fetch_add(1, std::memory_order_relaxed);
      });
  executor.wait(job);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorTest, MultipleJobsInFlightAllComplete) {
  Executor executor(3);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::atomic<int> c{0};
  Executor::Job job_a =
      executor.submit(50, [&](std::size_t, int) { a.fetch_add(1); });
  Executor::Job job_b =
      executor.submit(30, [&](std::size_t, int) { b.fetch_add(1); });
  Executor::Job job_c =
      executor.submit(0, [&](std::size_t, int) { c.fetch_add(1); });
  // Waiting out of submission order must be fine: jobs progress
  // independently on the shared workers.
  executor.wait(job_b);
  EXPECT_EQ(b.load(), 30);
  executor.wait(job_a);
  executor.wait(job_c);
  EXPECT_EQ(a.load(), 50);
  EXPECT_EQ(c.load(), 0);
}

TEST(ExecutorTest, PerJobErrorCaptureLeavesOtherJobsUnharmed) {
  Executor executor(4);
  std::atomic<int> healthy{0};
  Executor::Job failing =
      executor.submit(40, [&](std::size_t index, int) {
        if (index % 2 == 1) {
          throw std::runtime_error("trial " + std::to_string(index));
        }
      });
  Executor::Job clean =
      executor.submit(40, [&](std::size_t, int) { healthy.fetch_add(1); });
  executor.wait(clean);  // unaffected by its failing neighbour
  EXPECT_EQ(healthy.load(), 40);
  EXPECT_THROW(executor.wait(failing), std::runtime_error);
  // The executor stays usable after a failed job.
  Executor::Job again =
      executor.submit(8, [&](std::size_t, int) { healthy.fetch_add(1); });
  executor.wait(again);
  EXPECT_EQ(healthy.load(), 48);
}

TEST(ExecutorTest, SerialExecutorFailsDeterministicallyAtLowestIndex) {
  Executor executor(1);
  std::vector<std::size_t> ran;
  Executor::Job job = executor.submit(10, [&](std::size_t index, int worker) {
    EXPECT_EQ(worker, 0);
    ran.push_back(index);
    if (index >= 2) throw std::runtime_error("boom " + std::to_string(index));
  });
  try {
    executor.wait(job);
    FAIL() << "expected the job failure to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");  // lowest failing index
  }
  // Serial execution is strictly in order and abandons after the failure.
  ASSERT_EQ(ran.size(), 3u);
  EXPECT_EQ(ran[2], 2u);
  // Waiting again is idempotent and reports the same failure.
  EXPECT_THROW(executor.wait(job), std::runtime_error);
}

TEST(ExecutorTest, WaitOnInvalidJobThrows) {
  Executor executor(2);
  Executor::Job job;
  EXPECT_FALSE(job.valid());
  EXPECT_THROW(executor.wait(job), Error);
}

// ---------------------------------------------------------------------------
// Nested submission: a body may submit to its own executor, never wait on it
// ---------------------------------------------------------------------------

TEST(ExecutorNested, WaitInsideABodyFailsItsJob) {
  // A nested wait would park a pool thread (or, on one worker, run the
  // sub-job inline on the waiter), so it throws instead and fails the
  // body's job with that error. The sub-job the body submitted still runs:
  // submitting from a body stays legal, and an external thread waits it.
  for (const int workers : {1, 3}) {
    Executor executor(workers);
    std::atomic<int> inner_runs{0};
    Executor::Job sub;
    const Executor::Job outer = executor.submit(1, [&](std::size_t, int) {
      sub = executor.submit(8, [&](std::size_t, int) {
        inner_runs.fetch_add(1, std::memory_order_relaxed);
      });
      executor.wait(sub);
    });
    try {
      executor.wait(outer);
      FAIL() << "expected the nested wait to fail its job (workers "
             << workers << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("cannot wait on its own executor"),
                std::string::npos)
          << e.what();
    }
    executor.wait(sub);
    EXPECT_EQ(inner_runs.load(), 8);
  }
}

// ---------------------------------------------------------------------------
// Bit-identical mapping at any --jobs value
// ---------------------------------------------------------------------------

void expect_identical(const MapResult& serial, const MapResult& parallel,
                      const char* label) {
  EXPECT_EQ(serial.latency, parallel.latency) << label;
  EXPECT_EQ(serial.placement_runs, parallel.placement_runs) << label;
  EXPECT_EQ(serial.initial_placement, parallel.initial_placement) << label;
  EXPECT_EQ(serial.final_placement, parallel.final_placement) << label;
  ASSERT_EQ(serial.trace.size(), parallel.trace.size()) << label;
  EXPECT_EQ(serial.trace.to_string(), parallel.trace.to_string()) << label;
}

class ParallelDeterminism : public ::testing::TestWithParam<QeccCode> {};

TEST_P(ParallelDeterminism, MvfbFlowMatchesSerial) {
  const Program program = make_encoder(GetParam());
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options;
  options.placer = PlacerKind::Mvfb;
  options.mvfb_seeds = 6;
  options.rng_seed = 17;

  options.jobs = 1;
  const MapResult serial = map_program(program, fabric, options);
  options.jobs = 4;
  const MapResult parallel = map_program(program, fabric, options);
  expect_identical(serial, parallel, code_name(GetParam()).c_str());
}

TEST_P(ParallelDeterminism, MonteCarloFlowMatchesSerial) {
  const Program program = make_encoder(GetParam());
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options;
  options.placer = PlacerKind::MonteCarlo;
  options.monte_carlo_trials = 16;
  options.rng_seed = 5;

  options.jobs = 1;
  const MapResult serial = map_program(program, fabric, options);
  options.jobs = 4;
  const MapResult parallel = map_program(program, fabric, options);
  expect_identical(serial, parallel, code_name(GetParam()).c_str());
}

INSTANTIATE_TEST_SUITE_P(Codes, ParallelDeterminism,
                         ::testing::Values(QeccCode::Q5_1_3,
                                           QeccCode::Q7_1_3));

// Direct placer-level checks: every field of the placer results agrees, and
// oversubscribing workers (jobs > trials) is safe.
TEST(ParallelDeterminismDirect, MvfbPlacerAgreesAcrossJobCounts) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const RoutingGraph routing(fabric);
  const DependencyGraph graph = DependencyGraph::build(program);
  const std::vector<int> rank = make_schedule_rank(graph, TechnologyParams{});
  const ExecutionOptions exec;

  MvfbResult reference;
  for (const int jobs : {1, 2, 4, 8}) {
    MvfbPlacer placer(graph, fabric, routing, rank, exec,
                      MvfbOptions{5, 3, 64, 23, jobs});
    const MvfbResult result = placer.place_and_execute();
    if (jobs == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.best_latency, reference.best_latency) << jobs;
    EXPECT_EQ(result.best_is_backward, reference.best_is_backward) << jobs;
    EXPECT_EQ(result.best_initial_placement, reference.best_initial_placement)
        << jobs;
    EXPECT_EQ(result.best_trace.to_string(), reference.best_trace.to_string())
        << jobs;
    EXPECT_EQ(result.total_runs, reference.total_runs) << jobs;
    EXPECT_EQ(result.total_iterations, reference.total_iterations) << jobs;
  }
}

TEST(ParallelDeterminismDirect, MonteCarloAgreesAcrossJobCounts) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const RoutingGraph routing(fabric);
  const DependencyGraph graph = DependencyGraph::build(program);
  const std::vector<int> rank = make_schedule_rank(graph, TechnologyParams{});
  const ExecutionOptions exec;

  const MonteCarloResult serial = monte_carlo_place_and_execute(
      graph, fabric, routing, rank, exec, 10, 9, /*jobs=*/1);
  for (const int jobs : {2, 4, 16}) {
    const MonteCarloResult parallel = monte_carlo_place_and_execute(
        graph, fabric, routing, rank, exec, 10, 9, jobs);
    EXPECT_EQ(parallel.best_latency, serial.best_latency) << jobs;
    EXPECT_EQ(parallel.best_initial_placement, serial.best_initial_placement)
        << jobs;
    EXPECT_EQ(parallel.best_execution.trace.to_string(),
              serial.best_execution.trace.to_string())
        << jobs;
  }
}

TEST(ParallelDeterminismDirect, MapperRejectsBadJobs) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options;
  options.jobs = 0;
  EXPECT_THROW(map_program(program, fabric, options), Error);
}

// trial_cpu_ms aggregates per-worker time: it is populated for the trial
// flows and (being a sum over all trials) at least the single best trial's
// share of the wall clock.
TEST(ParallelDeterminismDirect, TrialCpuTimeIsReported) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MapperOptions options;
  options.placer = PlacerKind::MonteCarlo;
  options.monte_carlo_trials = 8;
  options.jobs = 2;
  const MapResult result = map_program(program, fabric, options);
  EXPECT_GT(result.trial_cpu_ms, 0.0);
  EXPECT_EQ(result.jobs, 2);
}

}  // namespace
}  // namespace qspr
