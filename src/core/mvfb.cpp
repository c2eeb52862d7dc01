#include "core/mvfb.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/placer.hpp"

namespace qspr {

/// Everything one in-flight seed loop owns: the per-seed RNG streams (forked
/// up front by index), one TrialContext per worker, and the merged result.
/// Heap-held via shared_ptr so the executor job body outlives AsyncRun moves.
struct MvfbPlacer::AsyncState {
  /// Thread-confined state of one worker. The placer's simulators are shared
  /// read-only by every worker; all a worker mutates lives here:
  ///
  ///   * workspace — the simulator's per-run state and the router's
  ///                 SearchArena, reused by every run on this worker;
  ///   * best      — the worker-local incumbent, the best seed this worker
  ///                 ran, merged across workers by (latency, seed index)
  ///                 after the loop. One outcome per worker (not per seed)
  ///                 bounds memory and keeps the argmin deterministic: a
  ///                 later index never displaces an equal-latency earlier
  ///                 one;
  ///   * runs, iterations, cpu_ms — sums over the seeds this worker ran.
  struct TrialContext {
    EventSimulator::Workspace workspace;
    SeedOutcome best;
    std::size_t best_seed = std::numeric_limits<std::size_t>::max();
    int runs = 0;
    int iterations = 0;
    double cpu_ms = 0.0;

    /// True when (latency, seed) beats the incumbent — the total order that
    /// makes the cross-worker merge independent of scheduling.
    [[nodiscard]] bool improved_by(Duration latency, std::size_t seed) const {
      if (latency != best.best_latency) return latency < best.best_latency;
      return seed < best_seed;
    }
  };

  std::vector<Rng> seed_rngs;
  std::vector<TrialContext> contexts;
  /// Seeds whose bodies finished. A seed adds itself after its last write
  /// to its context, so the body that completes the count sees every
  /// context and merges; a failed or cancelled seed never adds itself.
  std::atomic<std::size_t> finished{0};
  MergeHook on_merged;
  /// Written by the merging body; collect() reads it after the job ends.
  MvfbResult result;

  /// Deterministic cross-worker merge: run counts and CPU time are
  /// order-independent sums; the winner is the global (latency, seed index)
  /// minimum.
  void merge();
};

void MvfbPlacer::AsyncState::merge() {
  TrialContext* winner = nullptr;
  for (TrialContext& candidate : contexts) {
    result.total_runs += candidate.runs;
    result.total_iterations += candidate.iterations;
    result.trial_cpu_ms += candidate.cpu_ms;
    if (winner == nullptr ||
        winner->improved_by(candidate.best.best_latency,
                            candidate.best_seed)) {
      winner = &candidate;
    }
  }

  require(winner != nullptr && winner->best.best_latency < kInfiniteDuration,
          "MVFB produced no execution");
  result.best_latency = winner->best.best_latency;
  result.best_is_backward = winner->best.best_is_backward;
  result.best_execution = std::move(winner->best.best_execution);
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
}

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
      options_(options),
      forward_sim_(qidg, fabric, routing_graph, rank, exec_options),
      traps_near_center_(traps_near_center) {
  require(options_.seeds >= 1, "MVFB needs at least one seed");
  require(options_.stop_after >= 1, "MVFB stop_after must be positive");
  require(options_.max_runs_per_seed >= 1,
          "MVFB max_runs_per_seed must be positive");
  require(options_.jobs >= 1, "MVFB needs at least one worker");
  // Only a seed that can run backward needs the UIDG: a Monte-Carlo placer
  // (one forward run per seed) never builds it.
  if (options_.max_runs_per_seed > 1) {
    uidg_.emplace(qidg.reversed());
    backward_sim_.emplace(*uidg_, fabric, routing_graph, reversed_rank(rank),
                          exec_options);
  }
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
    ExecutionResult backward = backward_sim_->run(placement, workspace);
    ++out.runs;
    ++out.iterations;
    placement = backward.final_placement;
    record(std::move(backward), /*is_backward=*/true);
  }
  return out;
}

MvfbPlacer::AsyncRun MvfbPlacer::submit(Executor& executor,
                                        MergeHook on_merged) {
  auto state = std::make_shared<AsyncState>();
  state->on_merged = std::move(on_merged);
  // Fork one RNG per seed up front, in seed order: seed i's stream is a pure
  // function of (rng_seed, i), independent of the worker count and of how
  // the executor interleaves seeds (even with other jobs in flight).
  Rng root(options_.rng_seed);
  state->seed_rngs.reserve(static_cast<std::size_t>(options_.seeds));
  for (int seed = 0; seed < options_.seeds; ++seed) {
    state->seed_rngs.push_back(root.fork());
  }
  state->contexts.resize(static_cast<std::size_t>(executor.worker_count()));

  AsyncRun run;
  run.state_ = state;
  run.job_ = executor.submit(
      static_cast<std::size_t>(options_.seeds),
      [this, state](std::size_t seed, int worker) {
        AsyncState::TrialContext& ctx =
            state->contexts[static_cast<std::size_t>(worker)];
        const ThreadCpuTimer watch;
        SeedOutcome out = run_seed(state->seed_rngs[seed], ctx.workspace);
        ctx.runs += out.runs;
        ctx.iterations += out.iterations;
        if (ctx.improved_by(out.best_latency, seed)) {
          ctx.best = std::move(out);
          ctx.best_seed = seed;
        }
        ctx.cpu_ms += watch.elapsed_ms();
        // The last seed to finish merges, after its CPU time is taken, so
        // trial_cpu_ms sums seed evaluations only.
        if (state->finished.fetch_add(1) + 1 == state->seed_rngs.size()) {
          state->merge();
          if (state->on_merged) state->on_merged(state->result);
        }
      });
  return run;
}

MvfbResult MvfbPlacer::collect(Executor& executor, AsyncRun& run) {
  require(run.valid(), "collect() needs a submitted MVFB run");
  // A wait that returns saw every seed finish, so the last one merged.
  executor.wait(run.job_);
  return std::move(run.state_->result);
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
