#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/mvfb.hpp"
#include "core/negotiation.hpp"
#include "core/placer.hpp"
#include "core/scheduler.hpp"

namespace qspr {

/// One staged job. Heap-held behind PendingMap so every address the
/// submitted job bodies capture (QIDG, rank, placer) stays stable while the
/// handle moves around.
struct MappingEngine::PendingState {
  MapJob job;
  Stopwatch stopwatch;
  std::shared_ptr<const FabricArtifacts> artifacts;
  DependencyGraph qidg;
  ExecutionOptions exec;
  std::vector<int> rank;
  /// Pre-filled by begin() (kind, jobs) and the setup job (ideal latency,
  /// setup time; the whole mapping on the single-run flows); completed by
  /// finish().
  MapResult result;
  /// The trial options of a QSPR MVFB or Monte-Carlo job; empty on the
  /// flows without placement trials.
  std::optional<MvfbOptions> trials;

  /// Program-derived setup (QIDG, rank) runs here so batch staging overlaps
  /// it with other jobs' trials. It then runs a single-run flow's placement
  /// run itself, or submits the trial loop. `placer` and `trial_run` are
  /// written by this job; wait on it before reading them.
  Executor::Job setup_job;
  std::unique_ptr<MvfbPlacer> placer;
  MvfbPlacer::AsyncRun trial_run;

  Executor* executor = nullptr;
  bool collected = false;

  /// Who runs the negotiation diagnostic: the first of finish() and the
  /// job's tail to set this. finish() sets it on entry, so a caller already
  /// waiting diagnoses as a blocking map always has; a caller arriving after
  /// the trials ended finds the tail's diagnostic done.
  std::atomic<bool> diagnosis_claimed{false};
  /// The tail's diagnostic, when the tail won the claim.
  std::optional<NegotiationDiagnostics> tail_negotiation;
  /// Stopwatch reading when the placement trials ended, merge included.
  double trials_end_ms = 0.0;

  /// The optional negotiation diagnostic of the mapped `trace`.
  [[nodiscard]] std::optional<NegotiationDiagnostics> diagnose(
      const Trace& trace) const {
    if (!job.options.negotiation_report || trace.size() == 0) return {};
    return diagnose_negotiation(*artifacts, exec.tech, trace, job.options);
  }

  /// The job's tail, run by the executor body that ended its trials: the
  /// setup job of a flow without trials, or the trial body that merged the
  /// winner. A throw from the diagnostic fails that executor job, so
  /// finish() rethrows it.
  void tail(const Trace& trace) {
    trials_end_ms = stopwatch.elapsed_ms();
    if (!diagnosis_claimed.exchange(true)) tail_negotiation = diagnose(trace);
  }

  ~PendingState() {
    if (collected || executor == nullptr) return;
    // Drain an abandoned job so the job bodies' captures (which point into
    // this object) cannot outlive it. Failures were never collected;
    // swallow them. The setup job goes first: waiting it makes the trial
    // handle it submitted visible and valid.
    try {
      if (setup_job.valid()) executor->wait(setup_job);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    try {
      if (trial_run.valid()) executor->wait(trial_run.job());
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
};

MappingEngine::PendingMap::PendingMap() = default;
MappingEngine::PendingMap::PendingMap(PendingMap&&) noexcept = default;
MappingEngine::PendingMap& MappingEngine::PendingMap::operator=(
    PendingMap&&) noexcept = default;
MappingEngine::PendingMap::~PendingMap() = default;

MappingEngine::MappingEngine(int workers) : executor_(workers) {}
MappingEngine::~MappingEngine() = default;

int MappingEngine::worker_count() const { return executor_.worker_count(); }
Executor& MappingEngine::executor() { return executor_; }
FabricArtifactCache& MappingEngine::artifacts() { return cache_; }

MappingEngine::PendingMap MappingEngine::begin(const MapJob& job) {
  require(job.program != nullptr && job.fabric != nullptr,
          "MapJob needs a program and a fabric");
  require(std::isfinite(job.options.route_heuristic_weight) &&
              job.options.route_heuristic_weight >= 1.0,
          "MapJob route_heuristic_weight must be finite and >= 1 (1.0 is "
          "exact)");
  const MapperOptions& options = job.options;
  // The QSPR placers run placement trials: MVFB seeds, or Monte-Carlo trials
  // as MVFB seeds of one forward run each (§V.A). The other flows run none.
  std::optional<MvfbOptions> trials;
  if (options.kind == MapperKind::Qspr &&
      options.placer != PlacerKind::Center) {
    trials.emplace();
    if (options.placer == PlacerKind::MonteCarlo) {
      require(options.monte_carlo_trials >= 1,
              "Monte Carlo placer needs at least one trial");
      trials->seeds = options.monte_carlo_trials;
      trials->max_runs_per_seed = 1;
    } else {
      require(options.mvfb_seeds >= 1, "MVFB needs at least one seed");
      trials->seeds = options.mvfb_seeds;
    }
    trials->rng_seed = options.rng_seed;
    trials->jobs = executor_.worker_count();
    trials->cancel = job.cancel;
  }
  // A job cancelled (or expired) before staging fails here, before any
  // artifact build or trial submission consumes shared capacity.
  job.cancel.check();

  auto state = std::make_unique<PendingState>();
  state->trials = std::move(trials);
  state->executor = &executor_;
  state->job = job;

  MapResult& result = state->result;
  result.kind = options.kind;
  result.jobs = executor_.worker_count();

  // Fabric-artifact resolution stays on the calling thread — the cache is
  // the only reader of the caller's fabric, so the begin()-reads-the-fabric
  // contract holds. The program-derived setup (QIDG build, critical path,
  // schedule rank) runs as an executor job, so a batch coordinator staging
  // job N+1 overlaps its setup with job N's trials.
  if (options.kind == MapperKind::IdealBaseline) {
    // The ideal bound needs no routing artifacts at all — don't build any.
    result.placement_runs = 0;
  } else {
    state->artifacts = cache_.get(*job.fabric);
    state->exec = execution_options_for(options);
  }

  state->setup_job = executor_.submit(1, [s = state.get()](std::size_t, int) {
    const CancelToken& cancel = s->job.cancel;
    cancel.check();
    const ThreadCpuTimer setup_watch;
    const MapperOptions& opts = s->job.options;
    MapResult& result = s->result;
    s->qidg = DependencyGraph::build(*s->job.program);
    result.ideal_latency = s->qidg.critical_path_latency(opts.tech);
    if (opts.kind == MapperKind::IdealBaseline) {
      result.latency = result.ideal_latency;
      result.setup_ms = setup_watch.elapsed_ms();
      s->tail(result.trace);
      return;
    }
    const FabricArtifacts& artifacts = *s->artifacts;
    s->rank = make_schedule_rank(s->qidg, s->exec.tech,
                                 schedule_options_for(opts));
    if (s->trials.has_value()) {
      s->placer = std::make_unique<MvfbPlacer>(
          s->qidg, artifacts.fabric, artifacts.graph, s->rank, s->exec,
          *s->trials, &artifacts.traps_near_center);
      result.setup_ms = setup_watch.elapsed_ms();
      // Trial submission is the job's last act, and nothing after it can
      // throw: when finish()'s setup wait rethrows, no trial handle exists.
      s->trial_run = s->placer->submit(
          *s->executor,
          [s](const MvfbResult& best) { s->tail(best.best_trace); });
      return;
    }
    // Single-placement flows: QUALE / QPOS (center placement, §I) or a QSPR
    // ablation with the center placer. Their one placement run executes
    // right here.
    const Placement initial = center_placement_from(
        artifacts.traps_near_center, s->job.program->qubit_count());
    result.setup_ms = setup_watch.elapsed_ms();
    cancel.check();
    const ThreadCpuTimer watch;
    ExecutionResult execution =
        execute_circuit(s->qidg, artifacts.fabric, artifacts.graph, s->rank,
                        initial, s->exec);
    result.trial_cpu_ms = watch.elapsed_ms();
    result.latency = execution.latency;
    result.trace = std::move(execution.trace);
    result.initial_placement = initial;
    result.final_placement = std::move(execution.final_placement);
    result.stats = execution.stats;
    result.timings = std::move(execution.timings);
    result.placement_runs = 1;
    s->tail(result.trace);
  });
  PendingMap pending;
  pending.state_ = std::move(state);
  return pending;
}

MapResult MappingEngine::finish(PendingMap pending) {
  require(pending.valid(), "finish() needs a staged job");
  PendingState& state = *pending.state_;
  require(!state.collected, "finish() called twice on one job");
  state.collected = true;
  const bool diagnose_here = !state.diagnosis_claimed.exchange(true);
  const double entry_ms = state.stopwatch.elapsed_ms();
  // Setup first: it wrote ideal_latency/setup_ms (and a single-run flow's
  // whole mapping) into the result and submitted the trial loop collected
  // below. A setup failure (cancelled job, malformed program) rethrows here
  // before any trial handle exists.
  executor_.wait(state.setup_job);
  MapResult result = std::move(state.result);

  if (state.placer != nullptr) {
    MvfbResult best = state.placer->collect(executor_, state.trial_run);
    result.trial_cpu_ms = best.trial_cpu_ms;
    result.latency = best.best_latency;
    result.trace = std::move(best.best_trace);
    result.initial_placement = std::move(best.best_initial_placement);
    // For a backward winner the reported (time-reversed) execution ends
    // where the backward run began.
    result.final_placement = best.best_is_backward
                                 ? best.best_execution.initial_placement
                                 : best.best_execution.final_placement;
    result.stats = best.best_execution.stats;
    result.timings = std::move(best.best_execution.timings);
    result.placement_runs = best.total_runs;
  }

  // The clock stops at the later of finish() entry and the end of the
  // trials, never after the optional diagnostic: cpu_ms reports the mapping
  // itself, and must not depend on whether a report was requested. Under a
  // shared executor this is wall time, so it includes time spent
  // interleaved with other jobs' trials.
  result.cpu_ms = std::max(entry_ms, state.trials_end_ms);
  result.negotiation = diagnose_here ? state.diagnose(result.trace)
                                     : std::move(state.tail_negotiation);
  return result;
}

MapResult MappingEngine::map(const Program& program, const Fabric& fabric,
                             const MapperOptions& options) {
  MapJob job;
  job.program = &program;
  job.fabric = &fabric;
  job.options = options;
  return finish(begin(job));
}

}  // namespace qspr
