#include "core/monte_carlo.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/mvfb.hpp"

namespace qspr {

namespace {

/// The Monte Carlo placer as MvfbPlacer options: `trials` seeds of one
/// forward run each.
MvfbOptions one_run_seeds(int trials, std::uint64_t rng_seed, int jobs) {
  require(trials >= 1, "Monte Carlo placer needs at least one trial");
  require(jobs >= 1, "Monte Carlo placer needs at least one worker");
  MvfbOptions options;
  options.seeds = trials;
  options.max_runs_per_seed = 1;
  options.rng_seed = rng_seed;
  options.jobs = jobs;
  return options;
}

/// A one-run seed's winner is a forward run from its drawn placement.
MonteCarloResult from_best_seed(MvfbResult best) {
  MonteCarloResult result;
  result.best_latency = best.best_latency;
  result.best_initial_placement = std::move(best.best_initial_placement);
  result.best_execution = std::move(best.best_execution);
  result.trials = best.total_runs;
  result.trial_cpu_ms = best.trial_cpu_ms;
  return result;
}

}  // namespace

MonteCarloResult monte_carlo_place_and_execute(
    const DependencyGraph& qidg, const Fabric& fabric,
    const RoutingGraph& routing_graph, const std::vector<int>& rank,
    const ExecutionOptions& exec_options, int trials, std::uint64_t rng_seed,
    Executor& executor, const std::vector<TrapId>* traps_near_center) {
  MvfbPlacer placer(qidg, fabric, routing_graph, rank, exec_options,
                    one_run_seeds(trials, rng_seed, executor.worker_count()),
                    traps_near_center);
  return from_best_seed(placer.place_and_execute(executor));
}

MonteCarloResult monte_carlo_place_and_execute(
    const DependencyGraph& qidg, const Fabric& fabric,
    const RoutingGraph& routing_graph, const std::vector<int>& rank,
    const ExecutionOptions& exec_options, int trials, std::uint64_t rng_seed,
    int jobs) {
  MvfbPlacer placer(qidg, fabric, routing_graph, rank, exec_options,
                    one_run_seeds(trials, rng_seed, jobs));
  return from_best_seed(placer.place_and_execute());
}

}  // namespace qspr
