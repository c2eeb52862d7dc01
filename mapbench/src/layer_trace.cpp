#include "layer_trace.hpp"

#include <chrono>
#include <fstream>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/monte_carlo.hpp"
#include "core/mvfb.hpp"
#include "core/scheduler.hpp"
#include "qasm/parser.hpp"
#include "route/pathfinder.hpp"
#include "route/router.hpp"
#include "service/request_codec.hpp"
#include "sim/event_sim.hpp"
#include "sim/trace_validator.hpp"

namespace mapbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Trap-to-trap relocations of a trace, one per (instruction, operand):
/// the same net list the engine's negotiation diagnostic batch-routes.
std::vector<qspr::NetRequest> relocation_nets(const qspr::Trace& trace,
                                              const qspr::Fabric& fabric) {
  std::map<std::pair<std::int32_t, std::int32_t>,
           std::pair<qspr::Position, qspr::Position>>
      spans;
  std::vector<std::pair<std::int32_t, std::int32_t>> order;
  for (const qspr::MicroOp& op : trace.ops()) {
    if (op.kind != qspr::MicroOpKind::Move) continue;
    const auto key = std::make_pair(op.instruction.value(), op.qubit.value());
    const auto [it, inserted] =
        spans.try_emplace(key, std::make_pair(op.from, op.to));
    if (inserted) {
      order.push_back(key);
    } else {
      it->second.second = op.to;
    }
  }
  std::vector<qspr::NetRequest> nets;
  for (const auto& key : order) {
    const auto& [begin, end] = spans.at(key);
    const qspr::TrapId from = fabric.trap_at(begin);
    const qspr::TrapId to = fabric.trap_at(end);
    if (from.is_valid() && to.is_valid() && from != to) {
      nets.push_back({from, to});
    }
  }
  return nets;
}

/// Mirrors the engine's ALT landmark wiring of the negotiation diagnostic
/// when the library has it (route_landmarks / cached landmark tables), and
/// compiles to nothing when it does not. Returns the tables to keep alive
/// for the call.
template <typename Mapper, typename Options, typename Artifacts>
std::shared_ptr<const void> apply_landmarks(const Mapper& mapper,
                                            const qspr::TechnologyParams& tech,
                                            const Artifacts& artifacts,
                                            Options& options) {
  if constexpr (requires {
                  options.alt_landmarks = mapper.route_landmarks;
                  options.landmarks =
                      artifacts.landmark_tables(1.0, 1.0, 1).get();
                }) {
    options.alt_landmarks = mapper.route_landmarks;
    if (options.alt_landmarks > 0) {
      const double turn_cost =
          options.turn_aware ? static_cast<double>(tech.t_turn) : 0.1;
      auto tables = artifacts.landmark_tables(static_cast<double>(tech.t_move),
                                              turn_cost, options.alt_landmarks);
      options.landmarks = tables.get();
      return tables;
    }
  }
  return nullptr;
}

}  // namespace

SpanLog::SpanLog() : origin_ns_(steady_ns()) {}

double SpanLog::now_ms() const {
  return static_cast<double>(steady_ns() - origin_ns_) / 1e6;
}

int SpanLog::open(const char* name, std::uint64_t map_id, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.map_id = map_id;
  span.start_ms = now_ms();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::close(int index) {
  Span& span = spans_.at(static_cast<std::size_t>(index));
  span.end_ms = now_ms();
  return span.end_ms - span.start_ms;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          span.end_ms - span.start_ms;
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& entry = totals[spans_[i].name];
    const double duration = spans_[i].end_ms - spans_[i].start_ms;
    entry.total_ms += duration;
    entry.self_ms += duration - child_ms[i];
    ++entry.count;
  }
  return totals;
}

void SpanLog::write_json(const std::string& path) const {
  qspr::JsonWriter json;
  json.begin_object();
  json.key("totals").begin_object();
  for (const auto& [name, entry] : totals()) {
    json.key(name).begin_object();
    json.field("count", entry.count);
    json.field("total_ms", entry.total_ms);
    json.field("self_ms", entry.self_ms);
    json.end_object();
  }
  json.end_object();
  json.key("spans").begin_array();
  for (const Span& span : spans_) {
    json.begin_object();
    json.field("name", std::string(span.name));
    json.field("map", static_cast<long long>(span.map_id));
    json.field("parent", span.parent);
    json.field("start_ms", span.start_ms);
    json.field("end_ms", span.end_ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream output(path);
  output << json.str() << '\n';
  if (!output) throw qspr::Error("cannot write span log: " + path);
}

ReplicaResult replicate_map(const BenchJob& job, const qspr::Fabric& fabric,
                            qspr::FabricArtifactCache& cache,
                            qspr::Executor& executor, SpanLog& log,
                            std::uint64_t map_id) {
  const qspr::MapperOptions& options = job.options;
  ReplicaResult out;
  LayerSample& sample = out.sample;
  qspr::MapResult& result = out.result;
  result.kind = options.kind;
  result.jobs = executor.worker_count();

  const int root = log.open("map", map_id);
  int span = log.open("qasm.parse", map_id, root);
  const qspr::Program program = qspr::parse_qasm(job.qasm, job.program_id);
  sample.parse_ms = log.close(span);

  span = log.open("circuit.qidg", map_id, root);
  const qspr::DependencyGraph qidg = qspr::DependencyGraph::build(program);
  result.ideal_latency = qidg.critical_path_latency(options.tech);
  sample.qidg_ms = log.close(span);

  span = log.open("scheduler.rank", map_id, root);
  const qspr::ExecutionOptions exec = qspr::execution_options_for(options);
  const std::vector<int> rank = qspr::make_schedule_rank(
      qidg, exec.tech, qspr::schedule_options_for(options));
  sample.rank_ms = log.close(span);

  span = log.open("fabric.artifacts", map_id, root);
  const std::shared_ptr<const qspr::FabricArtifacts> artifacts =
      cache.get(fabric);
  sample.artifacts_ms = log.close(span);

  span = log.open("placer.trials", map_id, root);
  if (options.kind == qspr::MapperKind::Qspr &&
      options.placer == qspr::PlacerKind::Mvfb) {
    qspr::MvfbOptions mvfb_options;
    mvfb_options.seeds = options.mvfb_seeds;
    mvfb_options.rng_seed = options.rng_seed;
    mvfb_options.jobs = executor.worker_count();
    qspr::MvfbPlacer placer(qidg, artifacts->fabric, artifacts->graph, rank,
                            exec, mvfb_options, &artifacts->traps_near_center);
    qspr::MvfbResult mvfb = placer.place_and_execute(executor);
    result.latency = mvfb.best_latency;
    result.trace = std::move(mvfb.best_trace);
    result.initial_placement = std::move(mvfb.best_initial_placement);
    result.final_placement = mvfb.best_is_backward
                                 ? mvfb.best_execution.initial_placement
                                 : mvfb.best_execution.final_placement;
    result.placement_runs = mvfb.total_runs;
    result.trial_cpu_ms = mvfb.trial_cpu_ms;
    result.stats = mvfb.best_execution.stats;
  } else if (options.kind == qspr::MapperKind::Qspr &&
             options.placer == qspr::PlacerKind::MonteCarlo) {
    qspr::MonteCarloResult mc = qspr::monte_carlo_place_and_execute(
        qidg, artifacts->fabric, artifacts->graph, rank, exec,
        options.monte_carlo_trials, options.rng_seed, executor,
        &artifacts->traps_near_center);
    result.latency = mc.best_execution.latency;
    result.trace = std::move(mc.best_execution.trace);
    result.initial_placement = std::move(mc.best_initial_placement);
    result.final_placement = std::move(mc.best_execution.final_placement);
    result.placement_runs = mc.trials;
    result.trial_cpu_ms = mc.trial_cpu_ms;
    result.stats = mc.best_execution.stats;
  } else {
    throw qspr::Error("the layer replica covers the QSPR MVFB and "
                      "Monte-Carlo flows only");
  }
  sample.trials_ms = log.close(span);
  sample.trial_cpu_ms = result.trial_cpu_ms;
  sample.placement_runs = result.placement_runs;
  sample.pipeline_ms = log.close(root);

  // Replay of the winner, one layer at a time.
  const int replay = log.open("replay", map_id);
  span = log.open("sim.run", map_id, replay);
  const qspr::EventSimulator simulator(qidg, artifacts->fabric,
                                       artifacts->graph, rank, exec);
  const qspr::ExecutionResult rerun = simulator.run(result.initial_placement);
  sample.sim_run_ms = log.close(span);
  sample.sim_moves = rerun.stats.moves;
  sample.sim_busy_enqueues = rerun.stats.busy_enqueues;
  sample.sim_nodes_settled = rerun.stats.nodes_settled;

  const std::vector<qspr::NetRequest> nets =
      relocation_nets(result.trace, artifacts->fabric);
  span = log.open("route.replay", map_id, replay);
  {
    const qspr::Router router(artifacts->graph, exec.tech, exec.router);
    const qspr::CongestionState idle(artifacts->fabric.segment_count(),
                                     artifacts->fabric.junction_count());
    qspr::SearchArena<qspr::Duration> arena;
    for (const qspr::NetRequest& net : nets) {
      const int query = log.open("route.query", map_id, span);
      const auto path = router.route_trap_to_trap(net.from, net.to, idle, arena);
      sample.route_query_ms += log.close(query);
      if (!path.has_value()) {
        sample.trace_violations.push_back("relocation has no idle route");
      }
      ++sample.route_queries;
    }
  }
  log.close(span);

  span = log.open("route.negotiate", map_id, replay);
  if (!nets.empty()) {
    qspr::PathFinderOptions negotiate;
    negotiate.heuristic_weight = options.route_heuristic_weight;
    const std::shared_ptr<const void> keep =
        apply_landmarks(options, exec.tech, *artifacts, negotiate);
    const qspr::PathFinderResult negotiated = qspr::route_nets_negotiated(
        artifacts->graph, exec.tech, nets, negotiate);
    sample.negotiate_iterations = negotiated.iterations_used;
    sample.negotiate_searches = negotiated.searches_performed;
    sample.negotiate_nodes_settled = negotiated.nodes_settled;
    sample.negotiate_converged = negotiated.converged;
    sample.negotiate_total_delay = negotiated.total_delay;
  } else {
    sample.negotiate_converged = true;
  }
  sample.negotiate_ms = log.close(span);

  span = log.open("sim.validate", map_id, replay);
  std::vector<std::string> violations =
      qspr::validate_trace(result.trace, qidg, artifacts->fabric,
                           result.initial_placement, exec.tech);
  sample.validate_ms = log.close(span);
  log.close(replay);
  for (std::string& violation : violations) {
    sample.trace_violations.push_back(std::move(violation));
  }
  return out;
}

std::string replica_mismatch(const ReplicaResult& replica,
                             const qspr::MapResult& engine_result) {
  const qspr::MapResult& mine = replica.result;
  const std::string mine_fp = qspr::map_result_fingerprint(mine);
  const std::string engine_fp = qspr::map_result_fingerprint(engine_result);
  if (mine.latency != engine_result.latency || mine_fp != engine_fp ||
      mine.placement_runs != engine_result.placement_runs) {
    return "replica latency " + std::to_string(mine.latency) + " fp " +
           mine_fp + " runs " + std::to_string(mine.placement_runs) +
           " vs engine latency " + std::to_string(engine_result.latency) +
           " fp " + engine_fp + " runs " +
           std::to_string(engine_result.placement_runs);
  }
  if (engine_result.negotiation.has_value()) {
    const qspr::NegotiationDiagnostics& n = *engine_result.negotiation;
    const LayerSample& s = replica.sample;
    if (n.iterations_used != s.negotiate_iterations ||
        n.searches_performed != s.negotiate_searches ||
        n.nodes_settled != s.negotiate_nodes_settled ||
        n.converged != s.negotiate_converged ||
        n.total_delay != s.negotiate_total_delay) {
      return "replica negotiation (iterations " +
             std::to_string(s.negotiate_iterations) + ", searches " +
             std::to_string(s.negotiate_searches) + ", nodes " +
             std::to_string(s.negotiate_nodes_settled) +
             ") differs from the engine's diagnostic (iterations " +
             std::to_string(n.iterations_used) + ", searches " +
             std::to_string(n.searches_performed) + ", nodes " +
             std::to_string(n.nodes_settled) + ")";
    }
  }
  return {};
}

}  // namespace mapbench
