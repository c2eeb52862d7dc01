// MappingEngine: the persistent service core behind map_program and the
// batch mapper.
//
// Where map_program was "one call, one pool, one program", the engine owns
// two long-lived resources shared by many mapping jobs:
//
//   * an Executor whose workers evaluate placement trials — from one job or
//     from many jobs at once, interleaved round-robin so a large circuit
//     cannot starve the queue;
//   * a FabricArtifactCache of read-only per-fabric structures (CSR routing
//     graph, traps-by-center placement table) built once per distinct
//     fabric and shared const across jobs.
//
// A MapJob names one program + fabric + per-job options (including the RNG
// seed); jobs preserve the PR-2 determinism contract individually: a job's
// MapResult is bit-identical at any worker count and regardless of what else
// shares the executor, because per-trial RNGs are forked up front by index
// and the winner is the (latency, index) minimum.
//
// Every job runs one flow: a setup job on the executor (QIDG, schedule
// rank) that either finishes the mapping itself — the ideal baseline, or the
// one center-placement run of QUALE, QPOS and `--placer center` — or submits
// the placement trials. Trials always run through MvfbPlacer: MVFB seeds, or
// Monte-Carlo trials as seeds of one forward run each.
//
// Every job has one rule for its tail. The executor body that ends the
// trials (the setup job of a flow without trials, or the trial body that
// merges the winner) runs the optional negotiation diagnostic, unless
// finish() has already claimed it. finish() claims it on entry. So a caller
// that is already waiting diagnoses after the trials, as a blocking map
// always has, while a batch coordinator that reaches finish() late finds
// the diagnostic done on a pool worker, in parallel with other jobs' trials.
//
// Two entry shapes:
//   map(...)            — blocking; the classic map_program behaviour.
//   begin(...)/finish() — the batch pipeline: begin() validates the options
//                         and resolves fabric artifacts on the calling
//                         thread, then submits the setup job without
//                         blocking; finish() waits and assembles the
//                         MapResult. Several begun jobs keep every worker
//                         busy across job boundaries. Per-job failures stay
//                         per-job: a throwing trial or diagnostic poisons
//                         only its own finish(), never the engine or its
//                         neighbours.
#pragma once

#include <memory>

#include "circuit/program.hpp"
#include "common/cancel.hpp"
#include "common/executor.hpp"
#include "core/artifact_cache.hpp"
#include "core/mapper.hpp"

namespace qspr {

/// One unit of mapping work for the engine: which program, onto which
/// fabric, under which per-job options (placer, trial budget, RNG seed,
/// ablation overrides — see MapperOptions).
///
/// `cancel` (optional) is polled before the setup and before every placement
/// run (each Monte-Carlo trial, each MVFB forward or backward run, the one
/// run of a single-placement flow): a cancelled or deadline-expired job
/// abandons its remaining runs and finish() rethrows the CancelledError,
/// exactly like any other per-job trial failure — neighbours sharing the
/// executor are unaffected, and a job whose token never fires is
/// bit-identical to one staged without a token.
struct MapJob {
  const Program* program = nullptr;
  const Fabric* fabric = nullptr;
  MapperOptions options;
  CancelToken cancel;
};

class MappingEngine {
  struct PendingState;  // staged-job state, defined in engine.cpp

 public:
  /// Workers shared by every job this engine maps. workers >= 1; 1 keeps
  /// everything on the calling thread.
  explicit MappingEngine(int workers = 1);
  ~MappingEngine();

  MappingEngine(const MappingEngine&) = delete;
  MappingEngine& operator=(const MappingEngine&) = delete;

  [[nodiscard]] int worker_count() const;
  [[nodiscard]] Executor& executor();
  [[nodiscard]] FabricArtifactCache& artifacts();

  /// A job staged by begin(): its setup job (and then its placement trials
  /// and tail) in flight on the shared executor. Destroying an unfinished
  /// PendingMap drains both first (errors swallowed), so captures never
  /// dangle.
  class PendingMap {
   public:
    PendingMap();
    PendingMap(PendingMap&&) noexcept;
    PendingMap& operator=(PendingMap&&) noexcept;
    ~PendingMap();

    [[nodiscard]] bool valid() const { return state_ != nullptr; }

   private:
    friend class MappingEngine;
    std::unique_ptr<PendingState> state_;
  };

  /// Stages `job`: resolves fabric artifacts through the cache on the
  /// calling thread, then submits the program-derived setup (QIDG build,
  /// critical path, schedule rank) as an executor job that runs a
  /// single-placement flow's one run itself or submits the placement-trial
  /// loop — so a coordinator staging many jobs overlaps one job's setup
  /// with another's trials instead of serialising ahead of them. Option
  /// validation and fabric failures (infeasible fabric, bad options such as
  /// a trial count below 1 for the job's placer) throw here;
  /// program-derived setup failures and placement-run failures surface in
  /// finish(). The job's program must stay valid until finish() — the
  /// fabric is only read during begin() (artifacts own a copy).
  [[nodiscard]] PendingMap begin(const MapJob& job);

  /// Blocks until the staged job's trials finish and assembles the
  /// MapResult. Runs the negotiation diagnostic itself unless the job's
  /// tail ran it before finish() was entered. Rethrows the job's captured
  /// trial or diagnostic failure, if any.
  MapResult finish(PendingMap pending);

  /// Blocking convenience: begin + finish.
  MapResult map(const Program& program, const Fabric& fabric,
                const MapperOptions& options = {});

 private:
  Executor executor_;
  FabricArtifactCache cache_;
};

}  // namespace qspr
