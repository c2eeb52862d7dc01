// The Multi-start Variable-length Forward/Backward (MVFB) placer — the
// paper's placement contribution (§IV.A) — and the one placement-trial loop
// of the library.
//
// MVFB exploits the reversibility of quantum computation: executing the
// uncompute graph (UIDG) in the reversed schedule order S*, starting from the
// final placement of a forward run, yields a new placement for the *inputs*
// — one that the execution itself has pulled toward where the computation
// wants the qubits. Iterating forward and backward runs is a local search in
// placement space; `m` random center placements multi-start it, and each
// seed's search stops after `stop_after` consecutive placement runs that fail
// to improve the best latency *that seed* has found (seeds are independent
// local searches, which is what makes them trial-parallel: the winner is the
// seed with the lowest latency, ties broken by seed index, so the result is
// bit-identical at any worker count).
//
// The paper's Monte Carlo placer (§V.A) is this multi-start with the local
// search switched off: `max_runs_per_seed = 1` makes every seed a single
// forward run from its random center placement (core/monte_carlo.hpp is a
// thin adapter), and such a placer builds no UIDG and no backward simulator.
//
// The seed loop runs on an Executor. place_and_execute() spawns a private
// one (the original single-job shape); the Executor& overload and the
// submit/collect pair run the seeds as one job on a *shared* executor, so a
// batch service can interleave many placers' seeds on one worker set. The
// executor body that finishes the last seed merges the winner, so a run's
// result is ready when its job ends, whether or not anyone is waiting.
//
// One "placement run" is a single forward or backward execution; one
// "iteration" is a forward+backward pair. The paper's Table 1 budgets the
// Monte Carlo baseline at twice the number of MVFB iterations, i.e. the same
// number of placement runs.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "circuit/dependency_graph.hpp"
#include "common/cancel.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "core/scheduler.hpp"
#include "sim/event_sim.hpp"

namespace qspr {

struct MvfbOptions {
  /// Number of random-center placement seeds (the paper's m).
  int seeds = 100;
  /// Stop a seed's local search after this many consecutive placement runs
  /// without improving the best latency this seed has found.
  int stop_after = 3;
  /// Cap on runs per seed: 64 is a safety bound far above what the stop
  /// rule reaches; 1 makes each seed one forward run (Monte Carlo). >= 1.
  int max_runs_per_seed = 64;
  std::uint64_t rng_seed = 1;
  /// Worker threads of the private executor spawned by the no-argument
  /// place_and_execute(). The Executor& overloads use the shared executor's
  /// workers instead. Results are bit-identical at any value: per-seed RNGs
  /// are forked up front by seed index and the winner is the
  /// (latency, seed index) minimum.
  int jobs = 1;
  /// Optional cooperative cancellation, polled before every placement run
  /// (each forward or backward execution): once fired, remaining seeds
  /// throw CancelledError and collect() rethrows it per the executor's
  /// per-job fault capture. A token that never fires changes nothing.
  CancelToken cancel;
};

struct MvfbResult {
  Duration best_latency = kInfiniteDuration;
  /// True when the winning run executed the UIDG backward; the reported
  /// trace is then the time-reversed backward trace (§IV.A).
  bool best_is_backward = false;
  /// Initial placement from which `best_trace` (a forward execution of the
  /// QIDG) reproduces best_latency.
  Placement best_initial_placement;
  /// Forward-executable control trace of the winning solution.
  Trace best_trace;
  /// Raw execution result of the winning run (un-reversed).
  ExecutionResult best_execution;
  /// Total placement runs (forward or backward executions).
  int total_runs = 0;
  /// Completed forward+backward pairs.
  int total_iterations = 0;
  /// Thread-CPU time spent inside seed evaluations, summed over workers.
  double trial_cpu_ms = 0.0;
};

class MvfbPlacer {
  struct AsyncState;  // in-flight seed-loop state, defined in mvfb.cpp

 public:
  /// `rank` is the QIDG issue priority (S); the backward rank S* is derived.
  /// `traps_near_center` (optional) is a precomputed traps-by-center table
  /// (FabricArtifacts::traps_near_center) that must outlive the placer; when
  /// null the placer derives its own once.
  MvfbPlacer(const DependencyGraph& qidg, const Fabric& fabric,
             const RoutingGraph& routing_graph, std::vector<int> rank,
             ExecutionOptions exec_options, MvfbOptions options,
             const std::vector<TrapId>* traps_near_center = nullptr);

  /// In-flight seed loop on a shared executor; created by submit(), finished
  /// by collect(). The placer must outlive the run.
  class AsyncRun {
   public:
    AsyncRun();
    AsyncRun(AsyncRun&&) noexcept;
    AsyncRun& operator=(AsyncRun&&) noexcept;
    ~AsyncRun();

    [[nodiscard]] bool valid() const { return state_ != nullptr; }
    /// Executor handle of the submitted seed loop (for drains/diagnostics;
    /// normal completion goes through MvfbPlacer::collect).
    [[nodiscard]] const Executor::Job& job() const { return job_; }

   private:
    friend class MvfbPlacer;
    std::shared_ptr<AsyncState> state_;
    Executor::Job job_;
  };

  /// Called with the merged result, on the worker that merged it.
  using MergeHook = std::function<void(const MvfbResult&)>;

  /// Submits the seed loop as one job on `executor` (non-blocking). The body
  /// that finishes the last seed merges the winner and then calls
  /// `on_merged`, if set, inside that body: the hook must not wait on
  /// `executor`, and a throw from it fails the run. A run with a failed or
  /// cancelled seed merges nothing and never calls the hook.
  [[nodiscard]] AsyncRun submit(Executor& executor, MergeHook on_merged = {});

  /// Waits for the submitted seeds and returns the winner the last seed
  /// merged. Rethrows the lowest-seed-index failure of this run, if any.
  MvfbResult collect(Executor& executor, AsyncRun& run);

  /// Runs the full multi-start search on a shared executor (submit+collect).
  MvfbResult place_and_execute(Executor& executor);

  /// Runs the full multi-start search on a private executor of
  /// min(options.jobs, options.seeds) workers. Deterministic for a fixed
  /// rng_seed at any job count.
  MvfbResult place_and_execute();

 private:
  /// Outcome of one seed's forward/backward local search.
  struct SeedOutcome {
    Duration best_latency = kInfiniteDuration;
    bool best_is_backward = false;
    ExecutionResult best_execution;
    int runs = 0;
    int iterations = 0;
  };

  /// Runs one seed's local search; thread-confined to `workspace` and the
  /// value-owned `seed_rng`, so seeds may execute concurrently.
  SeedOutcome run_seed(Rng seed_rng,
                       EventSimulator::Workspace& workspace) const;

  const DependencyGraph* qidg_;
  MvfbOptions options_;
  EventSimulator forward_sim_;
  /// The UIDG and its simulator; built only when a seed can run backward
  /// (max_runs_per_seed > 1).
  std::optional<DependencyGraph> uidg_;
  std::optional<EventSimulator> backward_sim_;
  /// Borrowed placement table, or &owned_traps_near_center_.
  const std::vector<TrapId>* traps_near_center_;
  std::vector<TrapId> owned_traps_near_center_;
};

}  // namespace qspr
