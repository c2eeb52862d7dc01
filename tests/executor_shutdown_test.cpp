// Shutdown and cancellation semantics of the shared Executor and the
// engine's staged jobs — the contracts qspr_serve's drain path leans on:
//
//   * an abandoned staged job (PendingMap destroyed without finish) drains
//     its submitted trials before the engine goes away, so trial-body
//     captures never dangle;
//   * many threads may each wait their own jobs while the executor shuts
//     down right behind them;
//   * a cancel token is observed between trial indices: earlier indices
//     complete, the first index after the flag throws CancelledError, the
//     job's remaining indices are abandoned — and neighbour jobs on the
//     same executor finish bit-identically untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/executor.hpp"
#include "core/engine.hpp"
#include "fabric/quale_fabric.hpp"
#include "qecc/codes.hpp"

namespace qspr {
namespace {

MapperOptions mc_options(int trials) {
  MapperOptions options;
  options.placer = PlacerKind::MonteCarlo;
  options.monte_carlo_trials = trials;
  options.rng_seed = 7;
  return options;
}

TEST(ExecutorShutdown, DestructionAfterWaitingAllJobsIsClean) {
  std::atomic<int> ran{0};
  {
    Executor executor(4);
    std::vector<Executor::Job> jobs;
    jobs.reserve(8);
    for (int j = 0; j < 8; ++j) {
      jobs.push_back(executor.submit(
          16, [&ran](std::size_t, int) { ran.fetch_add(1); }));
    }
    for (const Executor::Job& job : jobs) executor.wait(job);
  }
  EXPECT_EQ(ran.load(), 8 * 16);
}

TEST(ExecutorShutdown, AbandonedPendingMapDrainsItsQueuedTrials) {
  const Program program = make_encoder(QeccCode::Q7_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MappingEngine engine(2);
  MapJob job;
  job.program = &program;
  job.fabric = &fabric;
  job.options = mc_options(12);
  {
    // Stage trials, then drop the handle without finish(): the pending
    // state's destructor must wait out the submitted job (most of whose
    // indices are still unstarted) before its captures are freed.
    MappingEngine::PendingMap abandoned = engine.begin(job);
    EXPECT_TRUE(abandoned.valid());
  }
  // The engine is still fully serviceable afterwards.
  const MapResult result = engine.map(program, fabric, job.options);
  EXPECT_GT(result.latency, 0);
}

TEST(ExecutorShutdown, WaitersRacingDestructionEachGetTheirJob) {
  std::atomic<int> ran{0};
  {
    Executor executor(4);
    std::vector<std::thread> waiters;
    waiters.reserve(6);
    for (int t = 0; t < 6; ++t) {
      waiters.emplace_back([&executor, &ran] {
        const Executor::Job job = executor.submit(
            32, [&ran](std::size_t, int) { ran.fetch_add(1); });
        executor.wait(job);
      });
    }
    for (std::thread& waiter : waiters) waiter.join();
    // Destruction begins immediately after the last wait returns.
  }
  EXPECT_EQ(ran.load(), 6 * 32);
}

TEST(CancelToken, ObservedBetweenIndicesNotWithinThem) {
  // One worker runs indices strictly in order, so the cut is exact: the
  // flag raised inside index 3 is seen by index 4's boundary check.
  Executor executor(1);
  CancelSource source;
  const CancelToken token = source.token();
  std::vector<int> started;
  const Executor::Job job =
      executor.submit(100, [&](std::size_t index, int) {
        token.check();
        started.push_back(static_cast<int>(index));
        if (index == 3) source.request_cancel();
      });
  try {
    executor.wait(job);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::Cancelled);
  }
  EXPECT_EQ(started, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CancelToken, CancelledJobLeavesNeighbourBitIdentical) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const MapperOptions options = mc_options(8);

  // Reference: the same job alone on a fresh engine.
  MappingEngine reference(2);
  const MapResult solo = reference.map(program, fabric, options);

  MappingEngine engine(2);
  CancelSource source;
  MapJob doomed;
  doomed.program = &program;
  doomed.fabric = &fabric;
  doomed.options = mc_options(64);
  doomed.cancel = source.token();
  MapJob neighbour;
  neighbour.program = &program;
  neighbour.fabric = &fabric;
  neighbour.options = options;

  // Hold every pool thread on a gate until the cancel is requested, so no
  // part of the doomed job can start (and finish) first however the main
  // thread is scheduled. The main thread runs nothing until finish().
  const std::size_t pool_threads =
      static_cast<std::size_t>(engine.worker_count() - 1);
  std::latch held(static_cast<std::ptrdiff_t>(pool_threads));
  std::latch release(1);
  const Executor::Job gate =
      engine.executor().submit(pool_threads, [&](std::size_t, int) {
        held.count_down();
        release.wait();
      });
  held.wait();

  MappingEngine::PendingMap doomed_pending = engine.begin(doomed);
  MappingEngine::PendingMap neighbour_pending = engine.begin(neighbour);
  source.request_cancel();
  release.count_down();
  EXPECT_THROW(engine.finish(std::move(doomed_pending)), CancelledError);

  const MapResult survived = engine.finish(std::move(neighbour_pending));
  EXPECT_EQ(survived.latency, solo.latency);
  EXPECT_EQ(survived.trace.to_string(), solo.trace.to_string());
  engine.executor().wait(gate);
}

TEST(CancelToken, PreStagingDeadlineFailsBeginWithDeadlineReason) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  MappingEngine engine(1);
  CancelSource source;
  source.set_deadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  MapJob job;
  job.program = &program;
  job.fabric = &fabric;
  job.options = mc_options(4);
  job.cancel = source.token();
  try {
    MappingEngine::PendingMap pending = engine.begin(job);
    FAIL() << "expected CancelledError from begin()";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::DeadlineExpired);
  }
}

TEST(CancelToken, NeverFiredTokenIsBitIdenticalToNoToken) {
  const Program program = make_encoder(QeccCode::Q7_1_3);
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const MapperOptions options = mc_options(6);
  MappingEngine engine(2);

  const MapResult bare = engine.map(program, fabric, options);

  CancelSource source;
  source.set_deadline_after_ms(600'000.0);  // far future: never fires
  MapJob job;
  job.program = &program;
  job.fabric = &fabric;
  job.options = options;
  job.cancel = source.token();
  const MapResult tokened = engine.finish(engine.begin(job));

  EXPECT_EQ(tokened.latency, bare.latency);
  EXPECT_EQ(tokened.trace.to_string(), bare.trace.to_string());
  EXPECT_EQ(tokened.initial_placement, bare.initial_placement);
}

}  // namespace
}  // namespace qspr
