#include "core/engine.hpp"

#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/monte_carlo.hpp"
#include "core/mvfb.hpp"
#include "core/placer.hpp"
#include "core/scheduler.hpp"
#include "route/pathfinder.hpp"

namespace qspr {

namespace {

/// Trap-to-trap relocations of a control trace: per (instruction, operand)
/// the trap it departed and the trap it arrived in. Ops of one operand are
/// chronological within the trace, so first move's `from` / last move's `to`
/// bracket the relocation.
std::vector<NetRequest> relocation_nets(const Trace& trace,
                                        const Fabric& fabric) {
  std::map<std::pair<std::int32_t, std::int32_t>,
           std::pair<Position, Position>>
      spans;
  std::vector<std::pair<std::int32_t, std::int32_t>> order;
  for (const MicroOp& op : trace.ops()) {
    if (op.kind != MicroOpKind::Move) continue;
    const auto key = std::make_pair(op.instruction.value(), op.qubit.value());
    const auto [it, inserted] =
        spans.try_emplace(key, std::make_pair(op.from, op.to));
    if (inserted) {
      order.push_back(key);
    } else {
      it->second.second = op.to;
    }
  }
  std::vector<NetRequest> nets;
  for (const auto& key : order) {
    const auto& [begin, end] = spans.at(key);
    const TrapId from = fabric.trap_at(begin);
    const TrapId to = fabric.trap_at(end);
    if (from.is_valid() && to.is_valid() && from != to) {
      nets.push_back({from, to});
    }
  }
  return nets;
}

NegotiationDiagnostics diagnose_negotiation(const FabricArtifacts& artifacts,
                                            const TechnologyParams& tech,
                                            const Trace& trace,
                                            const MapperOptions& mapper) {
  NegotiationDiagnostics diagnostics;
  diagnostics.heuristic_weight = mapper.route_heuristic_weight;
  const RoutingGraph& routing_graph = artifacts.graph;
  const std::vector<NetRequest> nets =
      relocation_nets(trace, routing_graph.fabric());
  diagnostics.nets = static_cast<int>(nets.size());
  if (nets.empty()) {
    diagnostics.converged = true;
    return diagnostics;
  }
  PathFinderOptions options;
  options.heuristic_weight = mapper.route_heuristic_weight;
  const PathFinderResult negotiated =
      route_nets_negotiated(routing_graph, tech, nets, options);
  diagnostics.iterations_used = negotiated.iterations_used;
  diagnostics.converged = negotiated.converged;
  diagnostics.overused_resources = negotiated.overused_resources;
  diagnostics.max_overuse = negotiated.max_overuse;
  diagnostics.total_excess = negotiated.total_excess;
  diagnostics.min_feasible_excess = negotiated.min_feasible_excess;
  diagnostics.searches_performed = negotiated.searches_performed;
  diagnostics.total_delay = negotiated.total_delay;
  diagnostics.nodes_settled = negotiated.nodes_settled;
  return diagnostics;
}

}  // namespace

/// One staged job. Heap-held behind PendingMap so every address the
/// submitted trial bodies capture (QIDG, rank, simulators) stays stable
/// while the handle moves around.
struct MappingEngine::PendingState {
  enum class Flow : std::uint8_t { Ideal, Single, MonteCarlo, Mvfb };

  MapJob job;
  Stopwatch stopwatch;
  std::shared_ptr<const FabricArtifacts> artifacts;
  DependencyGraph qidg;
  ExecutionOptions exec;
  std::vector<int> rank;
  /// Pre-filled by begin() (kind, jobs, ideal latency); completed by
  /// finish().
  MapResult result;
  Flow flow = Flow::Ideal;

  // Flow::Mvfb
  std::unique_ptr<MvfbPlacer> mvfb;
  MvfbPlacer::AsyncRun mvfb_run;
  // Flow::MonteCarlo
  MonteCarloRun mc_run;
  // Flow::Single — one execution submitted as a 1-index job.
  struct SingleState {
    Placement initial;
    ExecutionResult execution;
    double trial_cpu_ms = 0.0;
  };
  std::shared_ptr<SingleState> single;
  Executor::Job single_job;

  /// Program-derived setup (QIDG, rank, trial submission) runs here so batch
  /// staging overlaps it with other jobs' trials. The flow-job handles above
  /// are written by this job; wait on it before reading them.
  Executor::Job setup_job;

  Executor* executor = nullptr;
  bool collected = false;

  ~PendingState() {
    if (collected || executor == nullptr) return;
    // Drain an abandoned job so the trial bodies' captures (which point
    // into this object) cannot outlive it. Failures were never collected;
    // swallow them. The setup job goes first: waiting it makes the flow-job
    // handles it submitted visible and valid.
    try {
      if (setup_job.valid()) executor->wait(setup_job);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    try {
      if (mvfb_run.valid()) executor->wait(mvfb_run.job());
      if (mc_run.valid()) executor->wait(mc_run.job());
      if (single_job.valid()) executor->wait(single_job);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
};

MappingEngine::PendingMap::PendingMap() = default;
MappingEngine::PendingMap::PendingMap(PendingMap&&) noexcept = default;
MappingEngine::PendingMap& MappingEngine::PendingMap::operator=(
    PendingMap&&) noexcept = default;
MappingEngine::PendingMap::~PendingMap() = default;

const std::string& MappingEngine::PendingMap::name() const {
  require(state_ != nullptr, "name() needs a staged job");
  return state_->job.name;
}

MappingEngine::MappingEngine(int workers) : executor_(workers) {}
MappingEngine::~MappingEngine() = default;

int MappingEngine::worker_count() const { return executor_.worker_count(); }
Executor& MappingEngine::executor() { return executor_; }
FabricArtifactCache& MappingEngine::artifacts() { return cache_; }

MappingEngine::PendingMap MappingEngine::begin(const MapJob& job) {
  require(job.program != nullptr && job.fabric != nullptr,
          "MapJob needs a program and a fabric");
  require(job.options.route_heuristic_weight >= 1.0,
          "MapJob route_heuristic_weight must be >= 1 (1.0 is exact)");
  // A job cancelled (or expired) before staging fails here, before any
  // artifact build or trial submission consumes shared capacity.
  job.cancel.check();
  const MapperOptions& options = job.options;

  auto state = std::make_unique<PendingState>();
  state->executor = &executor_;
  state->job = job;

  MapResult& result = state->result;
  result.kind = options.kind;
  result.jobs = executor_.worker_count();

  // Flow selection and fabric-artifact resolution stay on the calling
  // thread — the cache is the only reader of the caller's fabric, so the
  // begin()-reads-the-fabric contract holds. The program-derived setup
  // (QIDG build, critical path, schedule rank) runs as an executor job that
  // then nested-submits the placement trials, so a batch coordinator
  // staging job N+1 overlaps its setup with job N's trials.
  if (options.kind == MapperKind::IdealBaseline) {
    // The ideal bound needs no routing artifacts at all — don't build any.
    state->flow = PendingState::Flow::Ideal;
    result.placement_runs = 0;
  } else {
    state->artifacts = cache_.get(*job.fabric);
    state->exec = execution_options_for(options);
    if (options.kind != MapperKind::Qspr ||
        options.placer == PlacerKind::Center) {
      // Single-placement flows: QUALE / QPOS (center placement, §I) or a
      // QSPR ablation with the center placer.
      state->flow = PendingState::Flow::Single;
      state->single = std::make_shared<PendingState::SingleState>();
    } else if (options.placer == PlacerKind::MonteCarlo) {
      state->flow = PendingState::Flow::MonteCarlo;
    } else {
      state->flow = PendingState::Flow::Mvfb;
    }
  }

  state->setup_job = executor_.submit(1, [s = state.get()](std::size_t, int) {
    const CancelToken cancel = s->job.cancel;
    cancel.check();
    const ThreadCpuTimer setup_watch;
    const MapperOptions& opts = s->job.options;
    s->qidg = DependencyGraph::build(*s->job.program);
    s->result.ideal_latency = s->qidg.critical_path_latency(opts.tech);
    if (s->flow == PendingState::Flow::Ideal) {
      s->result.latency = s->result.ideal_latency;
      s->result.setup_ms = setup_watch.elapsed_ms();
      return;
    }
    const FabricArtifacts& artifacts = *s->artifacts;
    s->rank = make_schedule_rank(s->qidg, s->exec.tech,
                                 schedule_options_for(opts));
    // Trial submission is the job's last act, and nothing below can throw
    // after a flow job exists: when finish()'s setup wait rethrows, no trial
    // handle was ever created.
    switch (s->flow) {
      case PendingState::Flow::Ideal:
        break;  // handled above
      case PendingState::Flow::Single:
        s->single->initial = center_placement_from(
            artifacts.traps_near_center, s->job.program->qubit_count());
        s->result.setup_ms = setup_watch.elapsed_ms();
        s->single_job = s->executor->submit(
            1, [s, keep = s->artifacts, cancel](std::size_t, int) {
              cancel.check();
              const ThreadCpuTimer watch;
              s->single->execution =
                  execute_circuit(s->qidg, keep->fabric, keep->graph, s->rank,
                                  s->single->initial, s->exec);
              s->single->trial_cpu_ms = watch.elapsed_ms();
            });
        break;
      case PendingState::Flow::MonteCarlo:
        s->result.setup_ms = setup_watch.elapsed_ms();
        s->mc_run = monte_carlo_submit(
            s->qidg, artifacts.fabric, artifacts.graph, s->rank, s->exec,
            opts.monte_carlo_trials, opts.rng_seed, *s->executor,
            &artifacts.traps_near_center, cancel);
        break;
      case PendingState::Flow::Mvfb:
        s->mvfb = std::make_unique<MvfbPlacer>(
            s->qidg, artifacts.fabric, artifacts.graph, s->rank, s->exec,
            MvfbOptions{opts.mvfb_seeds, 3, 64, opts.rng_seed,
                        s->executor->worker_count(), cancel},
            &artifacts.traps_near_center);
        s->result.setup_ms = setup_watch.elapsed_ms();
        s->mvfb_run = s->mvfb->submit(*s->executor);
        break;
    }
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
  // Setup first: it wrote ideal_latency/setup_ms into the result and
  // submitted the flow job whose handle the switch below waits on. A setup
  // failure (cancelled job, malformed program) rethrows here before any
  // flow handle exists.
  executor_.wait(state.setup_job);
  MapResult result = std::move(state.result);

  const auto finish_single = [&](const Placement& initial,
                                 ExecutionResult&& execution) {
    result.latency = execution.latency;
    result.trace = std::move(execution.trace);
    result.initial_placement = initial;
    result.final_placement = std::move(execution.final_placement);
    result.stats = execution.stats;
    result.timings = std::move(execution.timings);
  };

  switch (state.flow) {
    case PendingState::Flow::Ideal:
      break;
    case PendingState::Flow::Single: {
      executor_.wait(state.single_job);
      result.trial_cpu_ms = state.single->trial_cpu_ms;
      finish_single(state.single->initial,
                    std::move(state.single->execution));
      result.placement_runs = 1;
      break;
    }
    case PendingState::Flow::MonteCarlo: {
      MonteCarloResult mc = monte_carlo_collect(executor_, state.mc_run);
      result.trial_cpu_ms = mc.trial_cpu_ms;
      finish_single(mc.best_initial_placement, std::move(mc.best_execution));
      result.placement_runs = mc.trials;
      break;
    }
    case PendingState::Flow::Mvfb: {
      MvfbResult mvfb = state.mvfb->collect(executor_, state.mvfb_run);
      result.trial_cpu_ms = mvfb.trial_cpu_ms;
      result.latency = mvfb.best_latency;
      result.trace = std::move(mvfb.best_trace);
      result.initial_placement = std::move(mvfb.best_initial_placement);
      // For a backward winner the reported (time-reversed) execution ends
      // where the backward run began.
      result.final_placement = mvfb.best_is_backward
                                   ? mvfb.best_execution.initial_placement
                                   : mvfb.best_execution.final_placement;
      result.stats = mvfb.best_execution.stats;
      result.timings = std::move(mvfb.best_execution.timings);
      result.placement_runs = mvfb.total_runs;
      break;
    }
  }

  // Stop the clock before the optional diagnostic: cpu_ms reports the
  // mapping itself, and must not depend on whether a report was requested.
  // Under a shared executor this is wall time from begin() to finish(), so
  // it includes time spent interleaved with other jobs' trials.
  result.cpu_ms = state.stopwatch.elapsed_ms();
  if (state.job.options.negotiation_report && result.trace.size() > 0) {
    result.negotiation = diagnose_negotiation(
        *state.artifacts, state.exec.tech, result.trace, state.job.options);
  }
  return result;
}

MapResult MappingEngine::map(const Program& program, const Fabric& fabric,
                             const MapperOptions& options) {
  MapJob job;
  job.program = &program;
  job.fabric = &fabric;
  job.options = options;
  job.name = program.name();
  return finish(begin(job));
}

}  // namespace qspr
