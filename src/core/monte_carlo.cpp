#include "core/monte_carlo.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/placer.hpp"
#include "core/trial_context.hpp"

namespace qspr {

/// Everything one in-flight trial loop owns. The simulator is shared
/// read-only by all workers; each run threads the worker's own workspace
/// through.
struct MonteCarloState {
  MonteCarloState(const DependencyGraph& qidg, const Fabric& fabric,
                  const RoutingGraph& routing_graph,
                  const std::vector<int>& rank,
                  const ExecutionOptions& exec_options)
      : simulator(qidg, fabric, routing_graph, rank, exec_options) {}

  EventSimulator simulator;
  std::vector<Rng> trial_rngs;
  std::vector<TrialContext> contexts;
  /// Borrowed placement table, or &owned_traps_near_center.
  const std::vector<TrapId>* traps_near_center = nullptr;
  std::vector<TrapId> owned_traps_near_center;
  std::size_t qubit_count = 0;
  int trials = 0;

  struct WorkerBest {
    TrialContext::Incumbent incumbent;
    Placement placement;
    ExecutionResult execution;
  };
  std::vector<WorkerBest> best;
};

MonteCarloRun::MonteCarloRun() = default;
MonteCarloRun::MonteCarloRun(MonteCarloRun&&) noexcept = default;
MonteCarloRun& MonteCarloRun::operator=(MonteCarloRun&&) noexcept = default;
MonteCarloRun::~MonteCarloRun() = default;

MonteCarloRun monte_carlo_submit(const DependencyGraph& qidg,
                                 const Fabric& fabric,
                                 const RoutingGraph& routing_graph,
                                 const std::vector<int>& rank,
                                 const ExecutionOptions& exec_options,
                                 int trials, std::uint64_t rng_seed,
                                 Executor& executor,
                                 const std::vector<TrapId>* traps_near_center,
                                 CancelToken cancel) {
  require(trials >= 1, "Monte Carlo placer needs at least one trial");
  auto state = std::make_shared<MonteCarloState>(qidg, fabric, routing_graph,
                                                 rank, exec_options);
  state->qubit_count = qidg.qubit_count();
  state->trials = trials;
  state->traps_near_center = traps_near_center;
  if (state->traps_near_center == nullptr) {
    state->owned_traps_near_center =
        fabric.traps_by_distance(fabric.center());
    state->traps_near_center = &state->owned_traps_near_center;
  }

  // Fork one RNG per trial up front, in trial order: trial t's stream is a
  // pure function of (rng_seed, t), independent of the worker count and of
  // other jobs sharing the executor.
  Rng root(rng_seed);
  state->trial_rngs.reserve(static_cast<std::size_t>(trials));
  for (int trial = 0; trial < trials; ++trial) {
    state->trial_rngs.push_back(root.fork());
  }
  const auto slots = static_cast<std::size_t>(executor.worker_count());
  state->contexts.resize(slots);
  state->best.resize(slots);

  MonteCarloRun run;
  run.state_ = state;
  run.job_ = executor.submit(
      static_cast<std::size_t>(trials),
      [state, cancel](std::size_t trial, int worker) {
        // Cooperative cancellation boundary: a fired token abandons this
        // job's remaining trials (per-job error capture), never mid-trial.
        cancel.check();
        TrialContext& ctx = state->contexts[static_cast<std::size_t>(worker)];
        const ThreadCpuTimer watch;
        ctx.rng = state->trial_rngs[trial];
        const Placement placement = random_center_placement_from(
            *state->traps_near_center, state->qubit_count, ctx.rng);
        ExecutionResult execution =
            state->simulator.run(placement, ctx.workspace);
        MonteCarloState::WorkerBest& local =
            state->best[static_cast<std::size_t>(worker)];
        if (local.incumbent.improved_by(execution.latency, trial)) {
          local.incumbent = {execution.latency, trial};
          local.placement = placement;
          local.execution = std::move(execution);
        }
        ctx.cpu_ms += watch.elapsed_ms();
      });
  return run;
}

MonteCarloResult monte_carlo_collect(Executor& executor, MonteCarloRun& run) {
  require(run.valid(), "collect() needs a submitted Monte Carlo run");
  executor.wait(run.job_);
  MonteCarloState& state = *run.state_;

  // Deterministic cross-worker merge by (latency, trial index).
  MonteCarloResult result;
  result.trials = state.trials;
  MonteCarloState::WorkerBest* winner = nullptr;
  for (MonteCarloState::WorkerBest& candidate : state.best) {
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
          "Monte Carlo produced no execution");
  result.best_latency = winner->incumbent.latency;
  result.best_initial_placement = std::move(winner->placement);
  result.best_execution = std::move(winner->execution);
  // Trials return their traces in issue order; only the winner's is sorted.
  result.best_execution.trace.sort_by_time();
  return result;
}

MonteCarloResult monte_carlo_place_and_execute(
    const DependencyGraph& qidg, const Fabric& fabric,
    const RoutingGraph& routing_graph, const std::vector<int>& rank,
    const ExecutionOptions& exec_options, int trials, std::uint64_t rng_seed,
    Executor& executor, const std::vector<TrapId>* traps_near_center) {
  MonteCarloRun run =
      monte_carlo_submit(qidg, fabric, routing_graph, rank, exec_options,
                         trials, rng_seed, executor, traps_near_center);
  return monte_carlo_collect(executor, run);
}

MonteCarloResult monte_carlo_place_and_execute(
    const DependencyGraph& qidg, const Fabric& fabric,
    const RoutingGraph& routing_graph, const std::vector<int>& rank,
    const ExecutionOptions& exec_options, int trials, std::uint64_t rng_seed,
    int jobs) {
  require(trials >= 1, "Monte Carlo placer needs at least one trial");
  require(jobs >= 1, "Monte Carlo placer needs at least one worker");
  Executor executor(std::min(jobs, trials));
  return monte_carlo_place_and_execute(qidg, fabric, routing_graph, rank,
                                       exec_options, trials, rng_seed,
                                       executor);
}

}  // namespace qspr
