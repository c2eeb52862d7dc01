// The Monte Carlo placer of the paper's experimental setup (§V.A): m' random
// center placements, each fully scheduled and routed once; the lowest-latency
// one wins. It is the budget-matched baseline MVFB is compared against in
// Table 1.
//
// It is MVFB's multi-start with the forward/backward local search switched
// off, so both entry points below are thin adapters over MvfbPlacer with
// max_runs_per_seed = 1 (core/mvfb.hpp): trial t is seed t, its RNG the t-th
// fork of Rng(rng_seed), and the winner the (latency, trial index) minimum —
// bit-identical at any worker count. MappingEngine stages the same placer on
// its shared executor.
#pragma once

#include "circuit/dependency_graph.hpp"
#include "common/executor.hpp"
#include "sim/event_sim.hpp"

namespace qspr {

struct MonteCarloResult {
  Duration best_latency = kInfiniteDuration;
  Placement best_initial_placement;
  ExecutionResult best_execution;
  int trials = 0;
  /// Thread-CPU time spent inside trials, summed over workers.
  double trial_cpu_ms = 0.0;
};

/// Executes `trials` random center placements on a shared executor and keeps
/// the best. `traps_near_center` (optional) is a precomputed traps-by-center
/// table (FabricArtifacts::traps_near_center) that must outlive the call;
/// when null the placer derives its own once.
MonteCarloResult monte_carlo_place_and_execute(
    const DependencyGraph& qidg, const Fabric& fabric,
    const RoutingGraph& routing_graph, const std::vector<int>& rank,
    const ExecutionOptions& exec_options, int trials, std::uint64_t rng_seed,
    Executor& executor, const std::vector<TrapId>* traps_near_center = nullptr);

/// Executes `trials` random center placements on a private executor of
/// min(jobs, trials) workers and keeps the best. Deterministic for a fixed
/// rng_seed at any job count.
MonteCarloResult monte_carlo_place_and_execute(
    const DependencyGraph& qidg, const Fabric& fabric,
    const RoutingGraph& routing_graph, const std::vector<int>& rank,
    const ExecutionOptions& exec_options, int trials, std::uint64_t rng_seed,
    int jobs = 1);

}  // namespace qspr
