// End-to-end mapper flows: the paper's QSPR tool and the re-implemented
// prior-art baselines it is evaluated against (§I, §V).
//
//   Qspr          priority list scheduling (§III) + MVFB placement (§IV.A)
//                 + turn-aware dual-qubit median routing with channel
//                 multiplexing (§IV.B).
//   Quale         ALAP scheduling, center placement, destination-fixed
//                 routing, turn-unaware path costs, channel capacity 1.
//   Qpos          ASAP scheduling prioritised by dependent count,
//                 destination-fixed routing, turn-unaware, capacity 1.
//   IdealBaseline T_routing = T_congestion = 0 lower bound (§V.A): the QIDG
//                 critical path with gate delays only.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "circuit/program.hpp"
#include "core/scheduler.hpp"
#include "sim/event_sim.hpp"

namespace qspr {

enum class MapperKind : std::uint8_t { Qspr, Quale, Qpos, IdealBaseline };

enum class PlacerKind : std::uint8_t { Mvfb, MonteCarlo, Center };

struct MapperOptions {
  MapperKind kind = MapperKind::Qspr;
  /// Physical machine description; §V.A defaults.
  TechnologyParams tech;
  /// Weights of the QSPR scheduling priority (§III).
  double priority_alpha = 1.0;
  double priority_beta = 1.0;
  /// Placement engine used by the QSPR flow.
  PlacerKind placer = PlacerKind::Mvfb;
  /// The paper's m (MVFB random seeds).
  int mvfb_seeds = 100;
  /// Trial budget when placer == MonteCarlo.
  int monte_carlo_trials = 100;
  std::uint64_t rng_seed = 1;
  /// Worker threads evaluating placement trials (MVFB seeds / Monte-Carlo
  /// placements) concurrently. Mapping results are bit-identical at any
  /// value; must be >= 1.
  int jobs = 1;
  /// Bounded-suboptimality knob forwarded to
  /// PathFinderOptions::heuristic_weight: negotiated searches may return
  /// paths up to this factor over the optimal negotiated cost. 1.0 (the
  /// default) is the exact search, bit-identical to the pre-knob engine.
  double route_heuristic_weight = 1.0;

  /// Batch-route the winning trace's relocations with the negotiated
  /// PathFinder and attach the convergence diagnostics to the result
  /// (MapResult::negotiation; surfaced by qspr_map --report).
  bool negotiation_report = false;

  // --- Ablation overrides (nullopt = the mapper's published behaviour) ---
  std::optional<bool> turn_aware;
  std::optional<bool> dual_move;
  std::optional<bool> return_home;
  std::optional<int> channel_capacity;
  std::optional<SchedulePolicy> schedule_policy;
  /// Extension (not in the paper): congestion-aware target trap selection.
  std::optional<TrapSelectionPolicy> trap_selection;
};

/// Congestion stress diagnostic of a mapped circuit: every trap-to-trap
/// relocation the winning execution performed, batch-routed *simultaneously*
/// by the negotiated PathFinder. A converging batch means the fabric could
/// absorb the program's full relocation demand at once; a non-converging one
/// reports how far over capacity the demand is (and how much of that excess
/// is structural — endpoint port demand no router can remove).
struct NegotiationDiagnostics {
  int nets = 0;
  int iterations_used = 0;
  bool converged = false;
  int overused_resources = 0;
  int max_overuse = 0;
  int total_excess = 0;
  int min_feasible_excess = 0;
  long long searches_performed = 0;
  /// Total physical delay of the negotiated batch (not part of the mapped
  /// latency; a whole-layer routing figure of merit).
  Duration total_delay = 0;
  /// Search-quality observability (MapperOptions::route_heuristic_weight):
  /// the suboptimality weight and the nodes the searches settled.
  double heuristic_weight = 1.0;
  long long nodes_settled = 0;
};

struct MapResult {
  MapperKind kind = MapperKind::Qspr;
  /// Total execution latency of the mapped circuit.
  Duration latency = 0;
  /// The ideal lower bound (critical path, gate delays only).
  Duration ideal_latency = 0;
  /// Control trace of the reported solution (empty for IdealBaseline).
  Trace trace;
  Placement initial_placement;
  Placement final_placement;
  ExecutionStats stats;
  std::vector<InstructionTiming> timings;
  /// Placement runs consumed (1 for single-placement flows).
  int placement_runs = 1;
  /// Wall-clock mapping time.
  double cpu_ms = 0.0;
  /// Thread-CPU time spent inside placement trials, summed over workers
  /// (scheduler time, not wall clock: a descheduled worker accrues nothing).
  /// trial_cpu_ms / cpu_ms therefore measures the parallelism the hardware
  /// actually delivered — it approaches `jobs` only when that many cores
  /// genuinely ran the trials.
  double trial_cpu_ms = 0.0;
  /// Thread-CPU time spent in program-derived setup (QIDG build, critical
  /// path, schedule rank) — since PR 9 that work runs as an executor job
  /// overlapped with other jobs' trials, and this field makes the
  /// setup-vs-search split observable per request in batch/serve stats.
  double setup_ms = 0.0;
  /// Worker threads the mapping ran with.
  int jobs = 1;
  /// Present when MapperOptions::negotiation_report was set (and the flow
  /// produced a trace to diagnose).
  std::optional<NegotiationDiagnostics> negotiation;
};

/// Maps `program` onto `fabric`. Throws ValidationError / SimulationError on
/// impossible inputs (fabric too small, disconnected, ...).
MapResult map_program(const Program& program, const Fabric& fabric,
                      const MapperOptions& options = {});

[[nodiscard]] std::string to_string(MapperKind kind);

/// Name parsers shared by the CLIs and the serve codec: "qspr" | "quale" |
/// "qpos" | "baseline", and "mvfb" | "mc" | "center". nullopt when unknown.
[[nodiscard]] std::optional<MapperKind> mapper_kind_from_name(
    std::string_view name);
[[nodiscard]] std::optional<PlacerKind> placer_kind_from_name(
    std::string_view name);

/// Applies `flag` to `options` when it is one of the mapper flags qspr_map,
/// qspr_batch and qspr_serve share — --mapper, --placer, --m (MVFB seeds
/// and MC trials) or --seed — reading its value through `value`. Returns
/// false for any other flag. Throws qspr::Error on an unknown name, a
/// malformed number or an --m below 1.
bool apply_mapper_flag(std::string_view flag,
                       const std::function<std::string()>& value,
                       MapperOptions& options);

/// The execution options (routing/physics policy) a mapper kind implies,
/// after applying the ablation overrides.
[[nodiscard]] ExecutionOptions execution_options_for(
    const MapperOptions& options);

/// The schedule policy a mapper kind implies, after overrides.
[[nodiscard]] ScheduleOptions schedule_options_for(const MapperOptions& options);

}  // namespace qspr
