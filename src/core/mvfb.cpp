#include "core/mvfb.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/placer.hpp"
#include "core/trial_context.hpp"

namespace qspr {

/// Everything one in-flight seed loop owns: the per-seed RNG streams (forked
/// up front by index) and the per-worker scratch/incumbents. Heap-held via
/// shared_ptr so the executor job body outlives AsyncRun moves.
struct MvfbPlacer::AsyncState {
  std::vector<Rng> seed_rngs;
  std::vector<TrialContext> contexts;

  struct WorkerBest {
    TrialContext::Incumbent incumbent;
    SeedOutcome outcome;
    int runs = 0;
    int iterations = 0;
  };
  std::vector<WorkerBest> best;
};

MvfbPlacer::AsyncRun::AsyncRun() = default;
MvfbPlacer::AsyncRun::AsyncRun(AsyncRun&&) noexcept = default;
MvfbPlacer::AsyncRun& MvfbPlacer::AsyncRun::operator=(AsyncRun&&) noexcept =
    default;
MvfbPlacer::AsyncRun::~AsyncRun() = default;

MvfbPlacer::MvfbPlacer(const DependencyGraph& qidg, const Fabric& fabric,
                       const RoutingGraph& routing_graph,
                       std::vector<int> rank, ExecutionOptions exec_options,
                       MvfbOptions options,
                       const std::vector<TrapId>* traps_near_center)
    : qidg_(&qidg),
      uidg_(qidg.reversed()),
      fabric_(&fabric),
      options_(options),
      forward_sim_(qidg, fabric, routing_graph, rank, exec_options),
      backward_sim_(uidg_, fabric, routing_graph, reversed_rank(rank),
                    exec_options),
      traps_near_center_(traps_near_center) {
  require(options_.seeds >= 1, "MVFB needs at least one seed");
  require(options_.stop_after >= 1, "MVFB stop_after must be positive");
  require(options_.jobs >= 1, "MVFB needs at least one worker");
  if (traps_near_center_ == nullptr) {
    owned_traps_near_center_ = fabric.traps_by_distance(fabric.center());
    traps_near_center_ = &owned_traps_near_center_;
  }
}

MvfbPlacer::SeedOutcome MvfbPlacer::run_seed(
    Rng seed_rng, EventSimulator::Workspace& workspace) const {
  SeedOutcome out;
  Placement placement = random_center_placement_from(
      *traps_near_center_, qidg_->qubit_count(), seed_rng);
  int non_improving = 0;

  const auto record = [&](ExecutionResult&& execution, bool is_backward) {
    if (execution.latency < out.best_latency) {
      out.best_latency = execution.latency;
      out.best_is_backward = is_backward;
      out.best_execution = std::move(execution);
      non_improving = 0;
    } else {
      ++non_improving;
    }
  };

  while (non_improving < options_.stop_after &&
         out.runs < options_.max_runs_per_seed) {
    // Cancellation boundary: between placement runs, never mid-execution.
    options_.cancel.check();
    // Forward placement run: QIDG in schedule order S. Its final placement
    // starts the backward run.
    ExecutionResult forward = forward_sim_.run(placement, workspace);
    ++out.runs;
    placement = forward.final_placement;
    record(std::move(forward), /*is_backward=*/false);
    if (non_improving >= options_.stop_after ||
        out.runs >= options_.max_runs_per_seed) {
      break;
    }

    options_.cancel.check();
    // Backward placement run: UIDG in reversed order S*. Its final
    // placement seeds the next iteration.
    ExecutionResult backward = backward_sim_.run(placement, workspace);
    ++out.runs;
    ++out.iterations;
    placement = backward.final_placement;
    record(std::move(backward), /*is_backward=*/true);
  }
  return out;
}

MvfbPlacer::AsyncRun MvfbPlacer::submit(Executor& executor) {
  auto state = std::make_shared<AsyncState>();
  // Fork one RNG per seed up front, in seed order: seed i's stream is a pure
  // function of (rng_seed, i), independent of the worker count and of how
  // the executor interleaves seeds (even with other jobs in flight).
  Rng root(options_.rng_seed);
  state->seed_rngs.reserve(static_cast<std::size_t>(options_.seeds));
  for (int seed = 0; seed < options_.seeds; ++seed) {
    state->seed_rngs.push_back(root.fork());
  }
  const auto slots = static_cast<std::size_t>(executor.worker_count());
  state->contexts.resize(slots);
  state->best.resize(slots);

  AsyncRun run;
  run.state_ = state;
  run.job_ = executor.submit(
      static_cast<std::size_t>(options_.seeds),
      [this, state](std::size_t seed, int worker) {
        TrialContext& ctx = state->contexts[static_cast<std::size_t>(worker)];
        AsyncState::WorkerBest& local =
            state->best[static_cast<std::size_t>(worker)];
        const ThreadCpuTimer watch;
        SeedOutcome out = run_seed(state->seed_rngs[seed], ctx.workspace);
        local.runs += out.runs;
        local.iterations += out.iterations;
        if (local.incumbent.improved_by(out.best_latency, seed)) {
          local.incumbent = {out.best_latency, seed};
          local.outcome = std::move(out);
        }
        ctx.cpu_ms += watch.elapsed_ms();
      });
  return run;
}

MvfbResult MvfbPlacer::collect(Executor& executor, AsyncRun& run) {
  require(run.valid(), "collect() needs a submitted MVFB run");
  executor.wait(run.job_);
  AsyncState& state = *run.state_;

  // Deterministic cross-worker merge: run counts are order-independent sums;
  // the winner is the global (latency, seed index) minimum.
  MvfbResult result;
  AsyncState::WorkerBest* winner = nullptr;
  for (AsyncState::WorkerBest& candidate : state.best) {
    result.total_runs += candidate.runs;
    result.total_iterations += candidate.iterations;
    if (winner == nullptr ||
        winner->incumbent.improved_by(candidate.incumbent.latency,
                                      candidate.incumbent.trial_index)) {
      winner = &candidate;
    }
  }
  for (const TrialContext& ctx : state.contexts) {
    result.trial_cpu_ms += ctx.cpu_ms;
  }

  require(winner != nullptr && winner->incumbent.latency < kInfiniteDuration,
          "MVFB produced no execution");
  result.best_latency = winner->incumbent.latency;
  result.best_is_backward = winner->outcome.best_is_backward;
  result.best_execution = std::move(winner->outcome.best_execution);
  // Runs return their traces in issue order; only the winner's is sorted.
  result.best_execution.trace.sort_by_time();
  if (result.best_is_backward) {
    // §IV.A: a winning backward computation is reported as its reverse — a
    // forward execution starting from the backward run's *final* placement.
    result.best_initial_placement = result.best_execution.final_placement;
    result.best_trace = result.best_execution.trace.time_reversed();
  } else {
    result.best_initial_placement = result.best_execution.initial_placement;
    result.best_trace = result.best_execution.trace;
  }
  return result;
}

MvfbResult MvfbPlacer::place_and_execute(Executor& executor) {
  AsyncRun run = submit(executor);
  return collect(executor, run);
}

MvfbResult MvfbPlacer::place_and_execute() {
  Executor executor(std::min(options_.jobs, options_.seeds));
  return place_and_execute(executor);
}

}  // namespace qspr
