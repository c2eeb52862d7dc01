#include "core/mapper.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/engine.hpp"

namespace qspr {

std::string to_string(MapperKind kind) {
  switch (kind) {
    case MapperKind::Qspr: return "QSPR";
    case MapperKind::Quale: return "QUALE";
    case MapperKind::Qpos: return "QPOS";
    case MapperKind::IdealBaseline: return "Baseline";
  }
  return "?";
}

std::optional<MapperKind> mapper_kind_from_name(std::string_view name) {
  if (name == "qspr") return MapperKind::Qspr;
  if (name == "quale") return MapperKind::Quale;
  if (name == "qpos") return MapperKind::Qpos;
  if (name == "baseline") return MapperKind::IdealBaseline;
  return std::nullopt;
}

std::optional<PlacerKind> placer_kind_from_name(std::string_view name) {
  if (name == "mvfb") return PlacerKind::Mvfb;
  if (name == "mc") return PlacerKind::MonteCarlo;
  if (name == "center") return PlacerKind::Center;
  return std::nullopt;
}

bool apply_mapper_flag(std::string_view flag,
                       const std::function<std::string()>& value,
                       MapperOptions& options) {
  if (flag == "--mapper") {
    const std::string name = value();
    const auto kind = mapper_kind_from_name(name);
    if (!kind.has_value()) throw Error("unknown mapper: " + name);
    options.kind = *kind;
  } else if (flag == "--placer") {
    const std::string name = value();
    const auto placer = placer_kind_from_name(name);
    if (!placer.has_value()) throw Error("unknown placer: " + name);
    options.placer = *placer;
  } else if (flag == "--m") {
    const long long m = parse_integer(value());
    if (m < 1) throw Error("--m must be at least 1");
    options.mvfb_seeds = static_cast<int>(m);
    options.monte_carlo_trials = static_cast<int>(m);
  } else if (flag == "--seed") {
    options.rng_seed = static_cast<std::uint64_t>(parse_integer(value()));
  } else {
    return false;
  }
  return true;
}

ExecutionOptions execution_options_for(const MapperOptions& options) {
  ExecutionOptions exec;
  exec.tech = options.tech;
  switch (options.kind) {
    case MapperKind::Qspr:
    case MapperKind::IdealBaseline:
      exec.router.turn_aware = true;
      exec.dual_move = true;
      break;
    case MapperKind::Quale:
      // Prior art: no turn modelling in path costs, destination fixed, no
      // ion multiplexing in channels (§I), and QUALE's storage discipline
      // (static placement: the visiting ion shuttles home after each gate).
      exec.router.turn_aware = false;
      exec.dual_move = false;
      exec.tech.channel_capacity = 1;
      exec.return_home_after_gate = true;
      break;
    case MapperKind::Qpos:
      // QPOS improves on QUALE: the destination qubit stays where the gate
      // executed ("the destination qubit is fixed in some trap while the
      // source qubit is moved to reach the destination", §I).
      exec.router.turn_aware = false;
      exec.dual_move = false;
      exec.tech.channel_capacity = 1;
      break;
  }
  if (options.turn_aware.has_value()) exec.router.turn_aware = *options.turn_aware;
  if (options.dual_move.has_value()) exec.dual_move = *options.dual_move;
  if (options.return_home.has_value()) {
    exec.return_home_after_gate = *options.return_home;
  }
  if (options.channel_capacity.has_value()) {
    exec.tech.channel_capacity = *options.channel_capacity;
  }
  if (options.trap_selection.has_value()) {
    exec.trap_selection = *options.trap_selection;
  }
  return exec;
}

ScheduleOptions schedule_options_for(const MapperOptions& options) {
  ScheduleOptions sched;
  sched.alpha = options.priority_alpha;
  sched.beta = options.priority_beta;
  switch (options.kind) {
    case MapperKind::Qspr:
    case MapperKind::IdealBaseline:
      sched.policy = SchedulePolicy::QsprPriority;
      break;
    case MapperKind::Quale:
      sched.policy = SchedulePolicy::Alap;
      break;
    case MapperKind::Qpos:
      sched.policy = SchedulePolicy::AsapDependents;
      break;
  }
  if (options.schedule_policy.has_value()) {
    sched.policy = *options.schedule_policy;
  }
  return sched;
}

MapResult map_program(const Program& program, const Fabric& fabric,
                      const MapperOptions& options) {
  require(options.jobs >= 1, "mapper needs at least one worker (jobs >= 1)");
  // One-shot engine sized to what this job can actually use: trial-parallel
  // flows get min(jobs, trials) workers, single-placement flows stay on the
  // calling thread. Callers mapping many programs should hold a
  // MappingEngine instead and let jobs share its executor and fabric
  // artifact cache.
  int workers = 1;
  if (options.kind == MapperKind::Qspr) {
    if (options.placer == PlacerKind::MonteCarlo) {
      workers = std::min(options.jobs,
                         std::max(1, options.monte_carlo_trials));
    } else if (options.placer == PlacerKind::Mvfb) {
      workers = std::min(options.jobs, std::max(1, options.mvfb_seeds));
    }
  }
  MappingEngine engine(workers);
  MapResult result = engine.map(program, fabric, options);
  // Report the worker budget the caller asked for, as before, not the
  // clamped engine size.
  result.jobs = options.jobs;
  return result;
}

}  // namespace qspr
