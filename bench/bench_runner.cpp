// Routing-core benchmark harness: runs the micro-router, PathFinder,
// saturated-overload ablation, scaling, trial-parallel and batch-throughput
// benches and emits a machine-readable BENCH_routing.json so every perf PR
// leaves a recorded trajectory.
//
//   bench_runner [--smoke] [--output PATH] [--jobs N] [--baseline PATH]
//
// --smoke shrinks repetition counts to a few iterations (CI bitrot guard)
// and, when a baseline BENCH_routing.json is readable, gates the pathfinder_*
// per-query numbers against it (>2x regression fails the run; set
// QSPR_SMOKE_NO_PERF_GATE=1 on slow runners to skip the gate); suites
// missing from the baseline are reported explicitly, never skipped in
// silence. --output defaults to BENCH_routing.json in the working directory;
// --baseline defaults to the checked-in BENCH_routing.json (repo root);
// --jobs caps the worker counts exercised by the parallel-scaling and
// batch-throughput suites (default 8; both always start from 1 worker).
//
// Reported per bench: ns/query (one nominal inner search: nets x iterations),
// ns/rep (one whole negotiation — the number that multiplies through the
// trial pipeline), searches actually performed (partial rip-up skips clean
// nets), negotiation iterations, convergence and residual over-use. The
// PathFinder suites run the optimized stack against the PR-1 baseline
// configuration (reference Dijkstra engine, full rip-up, classic schedule),
// so speedups are measured against live pre-optimization behaviour — never
// against a number frozen in a doc. batch_throughput likewise measures the
// batch service against a live sequential map_program loop.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/executor.hpp"
#include "common/json.hpp"
#include "common/net.hpp"
#include "route/pathfinder.hpp"
#include "service/batch_mapper.hpp"
#include "service/corpus.hpp"
#include "service/serve_loop.hpp"
#include "service/shard_client.hpp"
#include "service/shard_supervisor.hpp"

using namespace qspr;
using qspr_bench::JsonWriter;

namespace {

struct PathFinderSample {
  std::string name;
  std::string engine;
  std::string config;  // mechanism set: baseline | none | partial | ... | all
  int nets = 0;
  int repetitions = 0;
  double ns_per_query = 0.0;
  double ns_per_rep = 0.0;
  long long queries = 0;
  long long searches = 0;
  long long nodes_settled = 0;
  int iterations_used = 0;
  bool converged = false;
  int max_overuse = 0;
  int total_excess = 0;
  int min_feasible_excess = 0;
  Duration total_delay = 0;
  PathFinderOptions options;
};

/// The PR-1 negotiation loop: reference Dijkstra engine, full rip-up every
/// iteration, uncapped schedule — the live baseline every suite compares
/// against.
PathFinderOptions baseline_options() {
  PathFinderOptions options;
  options.engine = PathFinderEngine::ReferenceDijkstra;
  options.partial_ripup = false;
  options.adaptive_schedule = false;
  return options;
}

std::vector<NetRequest> central_nets(const Fabric& fabric, int count,
                                     std::uint64_t seed) {
  const auto central = fabric.traps_by_distance(fabric.center());
  const std::size_t pool = std::min<std::size_t>(central.size(), 64);
  Rng rng(seed);
  std::vector<NetRequest> nets;
  for (int i = 0; i < count; ++i) {
    const TrapId from = central[rng.uniform_index(pool)];
    TrapId to = central[rng.uniform_index(pool)];
    while (to == from) to = central[rng.uniform_index(pool)];
    nets.push_back({from, to});
  }
  return nets;
}

/// Long-haul uncontended pool: shuffle *every* trap on the fabric and
/// greedily pair traps at least `min_cells` apart (Manhattan over cell
/// coordinates), so each net crosses a large fraction of the fabric and no
/// endpoint repeats. With this few nets the negotiation converges without
/// contention — the regime where per-search guarantees transfer to per-net
/// delays.
std::vector<NetRequest> longhaul_nets(const Fabric& fabric, int count,
                                      int min_cells, std::uint64_t seed) {
  auto traps = fabric.traps_by_distance(fabric.center());
  Rng rng(seed);
  for (std::size_t i = traps.size(); i > 1; --i) {
    std::swap(traps[i - 1], traps[rng.uniform_index(i)]);
  }
  std::vector<NetRequest> nets;
  for (std::size_t i = 0;
       i + 1 < traps.size() && static_cast<int>(nets.size()) < count; ++i) {
    const Position a = fabric.trap(traps[i]).position;
    for (std::size_t j = i + 1; j < traps.size(); ++j) {
      const Position b = fabric.trap(traps[j]).position;
      if (std::abs(a.row - b.row) + std::abs(a.col - b.col) >= min_cells) {
        nets.push_back({traps[i], traps[j]});
        std::swap(traps[j], traps[i + 1]);
        ++i;
        break;
      }
    }
  }
  if (static_cast<int>(nets.size()) != count) {
    std::cerr << "longhaul_nets: only " << nets.size() << " of " << count
              << " pairs at >= " << min_cells << " cells\n";
    std::exit(2);
  }
  return nets;
}

/// Saturated-but-structurally-feasible load: pair up a shuffled pool of
/// distinct central traps, so no endpoint is shared (structural floor 0) and
/// residual over-use is genuinely negotiable contention, not port demand no
/// router can remove.
std::vector<NetRequest> distinct_nets(const Fabric& fabric, int count,
                                      std::uint64_t seed) {
  const auto central = fabric.traps_by_distance(fabric.center());
  const std::size_t pool =
      std::min<std::size_t>(central.size(),
                            std::max<std::size_t>(128, 2 * count));
  if (pool < 2 * static_cast<std::size_t>(count)) {
    std::cerr << "distinct_nets: fabric has only " << central.size()
              << " traps, cannot draw " << count << " disjoint pairs\n";
    std::exit(2);
  }
  Rng rng(seed);
  std::vector<TrapId> traps(central.begin(), central.begin() + pool);
  for (std::size_t i = traps.size(); i > 1; --i) {
    std::swap(traps[i - 1], traps[rng.uniform_index(i)]);
  }
  std::vector<NetRequest> nets;
  for (int i = 0; i < count; ++i) {
    nets.push_back({traps[2 * i], traps[2 * i + 1]});
  }
  return nets;
}

PathFinderSample run_pathfinder(const std::string& name,
                                const std::string& config,
                                const RoutingGraph& graph,
                                const TechnologyParams& params,
                                const std::vector<NetRequest>& nets,
                                const PathFinderOptions& options,
                                int repetitions) {
  PathFinderSample sample;
  sample.name = name;
  sample.config = config;
  sample.engine = options.engine == PathFinderEngine::AStarArena
                      ? "astar_arena"
                      : "reference_dijkstra";
  sample.nets = static_cast<int>(nets.size());
  sample.repetitions = repetitions;
  sample.options = options;

  PathFinderResult result;
  // One scratch reused across repetitions and samples — the per-worker
  // ownership pattern of the trial-parallel pipeline. Besides keeping
  // allocations out of the timed loop, reusing one long-lived arena makes
  // samples comparable: fresh per-sample allocations can land on unlucky
  // cache-aliasing addresses and skew an arena-based sample by tens of
  // percent depending on what the earlier suites left on the heap.
  static PathFinderScratch scratch;
  sample.ns_per_rep = qspr_bench::time_ns_per_rep(repetitions, [&] {
    result = route_nets_negotiated(graph, params, nets, options, scratch);
  });
  // One nominal "query" is one net in one negotiation iteration; with
  // partial rip-up the searches actually performed can be fewer (recorded
  // separately as `searches_per_rep`).
  const long long queries =
      static_cast<long long>(nets.size()) * result.iterations_used;
  sample.queries = queries;
  sample.ns_per_query =
      queries > 0 ? sample.ns_per_rep / static_cast<double>(queries) : 0.0;
  sample.searches = result.searches_performed;
  sample.nodes_settled = result.nodes_settled;
  sample.iterations_used = result.iterations_used;
  sample.converged = result.converged;
  sample.max_overuse = result.max_overuse;
  sample.total_excess = result.total_excess;
  sample.min_feasible_excess = result.min_feasible_excess;
  sample.total_delay = result.total_delay;
  return sample;
}

void write_sample(JsonWriter& json, const PathFinderSample& sample) {
  json.begin_object()
      .field("name", sample.name)
      .field("engine", sample.engine)
      .field("config", sample.config)
      .field("nets", sample.nets)
      .field("repetitions", sample.repetitions)
      .field("queries_per_rep", sample.queries)
      .field("searches_per_rep", sample.searches)
      .field("nodes_settled", sample.nodes_settled)
      .field("ns_per_query", sample.ns_per_query)
      .field("ns_per_rep", sample.ns_per_rep)
      .field("iterations_used", sample.iterations_used)
      .field("converged", sample.converged)
      .field("max_overuse", sample.max_overuse)
      .field("total_excess", sample.total_excess)
      .field("min_feasible_excess", sample.min_feasible_excess)
      .field("partial_ripup", sample.options.partial_ripup)
      .field("adaptive_schedule", sample.options.adaptive_schedule)
      .field("heuristic_weight", sample.options.heuristic_weight)
      .field("total_delay_us", static_cast<long long>(sample.total_delay))
      .end_object();
}

std::string speedup_cell(double baseline_ns, double ns) {
  return ns > 0.0 ? format_fixed(baseline_ns / ns, 2) + "x" : "n/a";
}

/// Perf-gate extractor over a *parsed* baseline BENCH_routing.json: the
/// `ns_per_query` of the sample with the given name, engine and config,
/// looked up across every gated suite array (pathfinder_runs, alt_longhaul
/// and frontier_queue). Field order and formatting no
/// longer matter (the shared JSON reader handles both), and a malformed
/// baseline fails the gate loudly instead of silently matching nothing.
/// Returns a negative value when the sample is absent.
double baseline_ns_per_query(const JsonValue& baseline,
                             const std::string& name,
                             const std::string& engine,
                             const std::string& config) {
  for (const char* suite :
       {"pathfinder_runs", "alt_longhaul", "frontier_queue"}) {
    const JsonValue* runs = baseline.find(suite);
    if (runs == nullptr || !runs->is_array()) continue;
    for (const JsonValue& sample : runs->items()) {
      if (sample.string_or("name", "") == name &&
          sample.string_or("engine", "") == engine &&
          sample.string_or("config", "") == config) {
        return sample.number_or("ns_per_query", -1.0);
      }
    }
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string output = "BENCH_routing.json";
  std::string baseline_path = "BENCH_routing.json";
  int max_jobs = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--output" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      try {
        max_jobs = std::stoi(argv[++i]);
      } catch (const std::exception&) {
        max_jobs = 0;
      }
      if (max_jobs < 1) {
        std::cerr << "--jobs must be a positive integer\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_runner [--smoke] [--output PATH] "
                   "[--baseline PATH] [--jobs N]\n";
      return 2;
    }
  }

  qspr_bench::print_header("Routing core benchmark harness");
  const TechnologyParams params;

  JsonWriter json;
  json.begin_object();
  json.field("schema", "qspr-bench-routing/v2");
  json.field("smoke", smoke);

  // Gate bookkeeping: pathfinder_* samples of this run, checked against the
  // baseline JSON at the end when --smoke.
  std::vector<PathFinderSample> gated_samples;

  // ------------------------------------------------------- micro-router ---
  // Single-query A* latency on the paper fabric (45x85, Fig. 4), the
  // greedy/incremental router used by the event simulator.
  {
    const Fabric fabric = make_paper_fabric();
    const RoutingGraph graph(fabric);
    CongestionState congestion(fabric.segment_count(),
                               fabric.junction_count());
    Router router(graph, params);
    SearchArena<Duration> arena;
    const auto central = fabric.traps_by_distance(fabric.center());
    const TrapId corner_a = fabric.traps().front().id;
    const TrapId corner_b = fabric.traps().back().id;
    const int reps = smoke ? 20 : 2000;

    json.key("micro_router").begin_array();
    struct Case {
      const char* name;
      TrapId from;
      TrapId to;
    };
    for (const Case c : {Case{"corner_to_corner", corner_a, corner_b},
                         Case{"neighbour_traps", central[0], central[1]}}) {
      Duration delay = 0;
      const double ns = qspr_bench::time_ns_per_rep(reps, [&] {
        const auto path =
            router.route_trap_to_trap(c.from, c.to, congestion, arena);
        delay = path.has_value() ? path->total_delay() : -1;
      });
      std::cout << "micro_router/" << c.name << ": "
                << format_fixed(ns, 0) << " ns/query, delay " << delay
                << " us\n";
      json.begin_object()
          .field("name", std::string(c.name))
          .field("fabric", "paper_45x85")
          .field("repetitions", reps)
          .field("ns_per_query", ns)
          .field("path_delay_us", static_cast<long long>(delay))
          .end_object();
    }
    json.end_array();
  }

  // ------------------------------------------------------ frontier-queue ---
  // The integer-cost Router Dijkstra under each frontier kind (binary heap /
  // monotone bucket queue, forced through the test hook) over a mixed
  // long-haul + local workload. The kinds pop the identical (f, g, node)
  // order, so path delays must agree exactly (asserted below); the rows
  // measure the pure constant-factor difference, and both feed the --smoke
  // perf gate.
  {
    const Fabric fabric = make_paper_fabric();
    const RoutingGraph graph(fabric);
    CongestionState congestion(fabric.segment_count(),
                               fabric.junction_count());
    Router router(graph, params);
    const auto central = fabric.traps_by_distance(fabric.center());
    const TrapId corner_a = fabric.traps().front().id;
    const TrapId corner_b = fabric.traps().back().id;
    struct Query {
      TrapId from;
      TrapId to;
    };
    const std::vector<Query> queries = {
        {corner_a, corner_b},        // corner-to-corner haul
        {central[0], central[1]},    // neighbour hop
        {corner_a, central[0]},      // corner to center
        {central[2], corner_b},      // center to corner
    };
    const int reps = smoke ? 20 : 2000;

    json.key("frontier_queue").begin_array();
    Duration reference_delay = -1;
    for (const FrontierKind kind :
         {FrontierKind::Binary, FrontierKind::Bucket}) {
      force_frontier_kind(kind);
      SearchArena<Duration> arena;
      Duration delay_sum = 0;
      const std::uint64_t settles_before = arena.settle_count();
      const double ns_per_rep = qspr_bench::time_ns_per_rep(reps, [&] {
        delay_sum = 0;
        for (const Query& q : queries) {
          const auto path =
              router.route_trap_to_trap(q.from, q.to, congestion, arena);
          delay_sum += path.has_value() ? path->total_delay() : -1;
        }
      });
      clear_frontier_kind_override();
      const auto settles = static_cast<long long>(
          arena.settle_count() - settles_before);
      const double ns_per_query =
          ns_per_rep / static_cast<double>(queries.size());
      const double settles_per_sec =
          ns_per_rep > 0.0
              ? static_cast<double>(settles) / static_cast<double>(reps) /
                    (ns_per_rep * 1e-9)
              : 0.0;
      if (reference_delay < 0) {
        reference_delay = delay_sum;
      } else if (delay_sum != reference_delay) {
        // The equivalence contract broke: the frontier is no longer a pure
        // constant-factor knob. Numbers recorded against it are garbage.
        std::cerr << "frontier_queue: " << to_string(kind)
                  << " path delays diverged from binary (" << delay_sum
                  << " vs " << reference_delay << ")\n";
        return 1;
      }
      std::cout << "frontier_queue/" << to_string(kind) << ": "
                << format_fixed(ns_per_query, 0) << " ns/query, "
                << format_fixed(settles_per_sec / 1e6, 2) << " M settles/s\n";
      json.begin_object()
          .field("name", "router_dijkstra")
          .field("engine", std::string(to_string(kind)))
          .field("config", "paper_45x85_mixed")
          .field("repetitions", reps)
          .field("queries_per_rep", static_cast<long long>(queries.size()))
          .field("ns_per_query", ns_per_query)
          .field("nodes_settled", settles)
          .field("settles_per_sec", settles_per_sec)
          .field("path_delay_us", static_cast<long long>(delay_sum))
          .end_object();
      PathFinderSample gate_row;
      gate_row.name = "router_dijkstra";
      gate_row.engine = to_string(kind);
      gate_row.config = "paper_45x85_mixed";
      gate_row.repetitions = reps;
      gate_row.ns_per_query = ns_per_query;
      gate_row.nodes_settled = settles;
      gated_samples.push_back(std::move(gate_row));
    }
    json.end_array();
  }

  // --------------------------------------------------------- pathfinder ---
  // Negotiated batch routing on the paper fabric: the full optimized stack
  // (all mechanisms, default options) against the PR-1 baseline per load
  // level. Two speedup columns: per nominal query (net x iteration) and per
  // whole negotiation (the trial-pipeline number).
  {
    const Fabric fabric = make_paper_fabric();
    const RoutingGraph graph(fabric);
    const std::vector<int> loads = smoke ? std::vector<int>{8, 32}
                                         : std::vector<int>{8, 16, 32};
    // Smoke runs feed the perf gate: light loads need more repetitions to
    // climb out of timer noise, heavy ones are stable (and slow) at two.
    const auto reps_for = [&](int load) {
      return smoke ? (load <= 16 ? 30 : 2) : 25;
    };

    TextTable table({"Nets", "Engine", "ns/query", "iters", "converged",
                     "delay (us)", "q speedup", "rep speedup"});
    std::vector<PathFinderSample> samples;
    for (const int load : loads) {
      const auto nets = central_nets(fabric, load, 11);
      const std::string name = "pathfinder_" + std::to_string(load) + "nets";
      const int reps = reps_for(load);
      const PathFinderSample reference =
          run_pathfinder(name, "baseline", graph, params, nets,
                         baseline_options(), reps);
      const PathFinderSample optimized = run_pathfinder(
          name, "all", graph, params, nets, PathFinderOptions{}, reps);
      table.add_row({std::to_string(load), reference.engine,
                     format_fixed(reference.ns_per_query, 0),
                     std::to_string(reference.iterations_used),
                     reference.converged ? "yes" : "no",
                     std::to_string(reference.total_delay), "1.00x",
                     "1.00x"});
      table.add_row({std::to_string(load), optimized.engine,
                     format_fixed(optimized.ns_per_query, 0),
                     std::to_string(optimized.iterations_used),
                     optimized.converged ? "yes" : "no",
                     std::to_string(optimized.total_delay),
                     speedup_cell(reference.ns_per_query,
                                  optimized.ns_per_query),
                     speedup_cell(reference.ns_per_rep,
                                  optimized.ns_per_rep)});
      samples.push_back(reference);
      samples.push_back(optimized);
    }
    std::cout << table.to_string();
    json.key("pathfinder_runs").begin_array();
    for (const PathFinderSample& sample : samples) {
      write_sample(json, sample);
      gated_samples.push_back(sample);
    }
    json.end_array();
  }

  // -------------------------------------------------- saturated overload ---
  // Heavy contention with distinct endpoints (structural floor 0): the
  // regime where the classic loop burns its iteration cap. Each mechanism
  // of the optimized stack is toggled individually so the ablation lands in
  // the JSON next to the baseline and the all-on stack.
  {
    const Fabric fabric = make_paper_fabric();
    const RoutingGraph graph(fabric);
    const int reps = smoke ? 1 : 5;
    const std::vector<int> loads = smoke ? std::vector<int>{24}
                                         : std::vector<int>{24, 32, 48};

    struct Config {
      const char* name;
      PathFinderOptions options;
    };
    const auto astar_with = [](bool partial, bool schedule) {
      PathFinderOptions options;  // engine defaults to AStarArena
      options.partial_ripup = partial;
      options.adaptive_schedule = schedule;
      return options;
    };
    const std::vector<Config> configs = {
        {"baseline", baseline_options()},
        {"none", astar_with(false, false)},
        {"partial", astar_with(true, false)},
        {"schedule", astar_with(false, true)},
        {"all", PathFinderOptions{}},
    };

    TextTable table({"Nets", "Config", "ns/query", "iters", "searches",
                     "settled", "conv", "excess", "delay (us)",
                     "rep speedup"});
    json.key("saturated_overload").begin_array();
    for (const int load : loads) {
      const auto nets = distinct_nets(fabric, load, 11);
      const std::string name = "saturated_" + std::to_string(load) + "nets";
      double baseline_rep_ns = 0.0;
      for (const Config& config : configs) {
        const PathFinderSample sample = run_pathfinder(
            name, config.name, graph, params, nets, config.options, reps);
        if (sample.config == "baseline") baseline_rep_ns = sample.ns_per_rep;
        table.add_row({std::to_string(load), config.name,
                       format_fixed(sample.ns_per_query, 0),
                       std::to_string(sample.iterations_used),
                       std::to_string(sample.searches),
                       std::to_string(sample.nodes_settled),
                       sample.converged ? "yes" : "no",
                       std::to_string(sample.total_excess),
                       std::to_string(sample.total_delay),
                       speedup_cell(baseline_rep_ns, sample.ns_per_rep)});
        write_sample(json, sample);
      }
    }
    json.end_array();
    std::cout << "\nsaturated overload (distinct endpoints, ablation):\n"
              << table.to_string();
  }

  // ------------------------------------------------------ long-haul runs ---
  // Long uncontended hauls across the whole fabric: the queries on which
  // each A* search settles the most nodes. The suite keeps its recorded name
  // (alt_longhaul) so its row stays gated against BENCH_routing.json.
  {
    const Fabric fabric = make_paper_fabric();
    const RoutingGraph graph(fabric);
    const auto nets = longhaul_nets(fabric, 8, 48, 11);
    const int reps = smoke ? 30 : 300;
    const PathFinderSample sample =
        run_pathfinder("alt_longhaul", "grid_uni", graph, params, nets,
                       PathFinderOptions{}, reps);
    json.key("alt_longhaul").begin_array();
    write_sample(json, sample);
    json.end_array();
    gated_samples.push_back(sample);
    std::cout << "\nlong-haul (8 nets, >= 48 cells apart): "
              << format_fixed(sample.ns_per_query, 0) << " ns/query, "
              << sample.nodes_settled << " settled, delay "
              << sample.total_delay << " us\n";
  }

  // ------------------------------------------------------------ scaling ---
  // Optimized engine across growing QUALE fabrics at a fixed load.
  {
    json.key("scaling").begin_array();
    struct Size {
      const char* name;
      QualeFabricParams quale;
    };
    const std::vector<Size> sizes = {
        {"quale_6x11", {6, 11, 4}},
        {"quale_12x22", {12, 22, 4}},
    };
    const int reps = smoke ? 1 : 10;
    for (const Size& size : sizes) {
      const Fabric fabric = make_quale_fabric(size.quale);
      const RoutingGraph graph(fabric);
      const auto nets = central_nets(fabric, 16, 7);
      const PathFinderSample sample =
          run_pathfinder(std::string("scaling_") + size.name, "all", graph,
                         params, nets, PathFinderOptions{}, reps);
      std::cout << "scaling/" << size.name << ": "
                << format_fixed(sample.ns_per_query, 0) << " ns/query, "
                << sample.iterations_used << " iters, delay "
                << sample.total_delay << " us\n";
      write_sample(json, sample);
    }
    json.end_array();
  }

  // --------------------------------------------------- parallel scaling ---
  // Trial-parallel mapping throughput: the Monte-Carlo trial loop and the
  // MVFB seed loop on the [[7,1,3]] benchmark, at growing worker counts.
  // Results are bit-identical at any worker count (checked below), so the
  // only thing that varies is trials/sec.
  {
    const Program program = make_encoder(QeccCode::Q7_1_3);
    const Fabric fabric = make_paper_fabric();
    std::vector<int> job_levels;
    for (const int jobs : {1, 2, 4, 8}) {
      if (jobs <= max_jobs) job_levels.push_back(jobs);
    }

    struct Flow {
      const char* name;
      PlacerKind placer;
      int trials;
    };
    const std::vector<Flow> flows = {
        {"monte_carlo", PlacerKind::MonteCarlo, smoke ? 10 : 100},
        {"mvfb", PlacerKind::Mvfb, smoke ? 4 : 100},
    };

    TextTable table({"Flow", "Trials", "Jobs", "wall ms", "trials/sec",
                     "speedup", "identical"});
    json.key("parallel_scaling").begin_object();
    json.field("code", "[[7,1,3]]");
    json.field("hardware_concurrency",
               static_cast<long long>(Executor::default_worker_count()));
    json.key("runs").begin_array();
    for (const Flow& flow : flows) {
      double serial_ms = 0.0;
      Duration serial_latency = 0;
      Placement serial_placement;
      Placement serial_final;
      std::string serial_trace;
      for (const int jobs : job_levels) {
        MapperOptions options;
        options.placer = flow.placer;
        options.monte_carlo_trials = flow.trials;
        options.mvfb_seeds = flow.trials;
        options.jobs = jobs;
        const MapResult result = map_program(program, fabric, options);
        if (jobs == 1) {
          serial_ms = result.cpu_ms;
          serial_latency = result.latency;
          serial_placement = result.initial_placement;
          serial_final = result.final_placement;
          serial_trace = result.trace.to_string();
        }
        const bool identical = result.latency == serial_latency &&
                               result.initial_placement == serial_placement &&
                               result.final_placement == serial_final &&
                               result.trace.to_string() == serial_trace;
        const double trials_per_sec =
            result.cpu_ms > 0.0
                ? static_cast<double>(result.placement_runs) * 1000.0 /
                      result.cpu_ms
                : 0.0;
        const double speedup =
            result.cpu_ms > 0.0 ? serial_ms / result.cpu_ms : 0.0;
        table.add_row({flow.name, std::to_string(result.placement_runs),
                       std::to_string(jobs), format_fixed(result.cpu_ms, 1),
                       format_fixed(trials_per_sec, 1),
                       format_fixed(speedup, 2) + "x",
                       identical ? "yes" : "NO"});
        json.begin_object()
            .field("flow", std::string(flow.name))
            .field("trials", flow.trials)
            .field("placement_runs", static_cast<long long>(result.placement_runs))
            .field("jobs", jobs)
            .field("wall_ms", result.cpu_ms)
            .field("trial_cpu_ms", result.trial_cpu_ms)
            .field("trials_per_sec", trials_per_sec)
            .field("speedup_vs_serial", speedup)
            .field("latency_us", static_cast<long long>(result.latency))
            .field("identical_to_serial", identical)
            .end_object();
      }
    }
    json.end_array().end_object();
    std::cout << "\nparallel scaling ([[7,1,3]], "
              << Executor::default_worker_count()
              << " hardware threads):\n"
              << table.to_string();
  }

  // --------------------------------------------------- batch throughput ---
  // The batch mapping service over a mixed-size corpus: programs/sec of
  // BatchMapper on a shared MappingEngine at growing worker counts, against
  // a live sequential map_program loop over the same manifest. Per-program
  // results are bit-identical to the loop at any worker count (checked),
  // and the per-fabric artifact cache must build exactly once for the whole
  // batch.
  {
    const std::vector<Program> corpus = make_batch_corpus(/*full=*/!smoke);
    const Fabric fabric = make_paper_fabric();
    MapperOptions options;
    options.placer = PlacerKind::MonteCarlo;
    options.monte_carlo_trials = smoke ? 4 : 12;
    options.rng_seed = 11;

    std::vector<BatchJob> manifest;
    for (const Program& program : corpus) {
      BatchJob job;
      job.name = program.name();
      job.program = &program;
      job.fabric = &fabric;
      job.options = options;
      manifest.push_back(job);
    }

    // Live sequential baseline: one map_program call per program, one
    // worker, no shared artifacts.
    std::vector<Duration> sequential_latencies;
    std::vector<std::string> sequential_traces;
    const Stopwatch sequential_watch;
    for (const Program& program : corpus) {
      const MapResult result = map_program(program, fabric, options);
      sequential_latencies.push_back(result.latency);
      sequential_traces.push_back(result.trace.to_string());
    }
    const double sequential_ms = sequential_watch.elapsed_ms();

    std::vector<int> job_levels;
    for (const int jobs : {1, 2, 4, 8}) {
      if (jobs <= max_jobs) job_levels.push_back(jobs);
    }

    TextTable table({"Workers", "Programs", "wall ms", "programs/sec",
                     "speedup", "identical", "artifact builds"});
    json.key("batch_throughput").begin_object();
    json.field("fabric", "paper_45x85");
    json.field("trials_per_program", options.monte_carlo_trials);
    json.key("programs").begin_array();
    for (const Program& program : corpus) json.value(program.name());
    json.end_array();
    json.field("sequential_wall_ms", sequential_ms);
    json.field("hardware_concurrency",
               static_cast<long long>(Executor::default_worker_count()));
    json.key("runs").begin_array();
    for (const int workers : job_levels) {
      MappingEngine engine(workers);
      BatchMapper batch(engine);
      const BatchResult result = batch.run(manifest);
      bool identical = result.summary.failed == 0;
      for (std::size_t i = 0; identical && i < corpus.size(); ++i) {
        identical = result.records[i].ok &&
                    result.records[i].result.latency ==
                        sequential_latencies[i] &&
                    result.records[i].result.trace.to_string() ==
                        sequential_traces[i];
      }
      const double speedup = result.summary.wall_ms > 0.0
                                 ? sequential_ms / result.summary.wall_ms
                                 : 0.0;
      table.add_row({std::to_string(workers),
                     std::to_string(result.summary.jobs),
                     format_fixed(result.summary.wall_ms, 1),
                     format_fixed(result.summary.programs_per_sec, 2),
                     format_fixed(speedup, 2) + "x",
                     identical ? "yes" : "NO",
                     std::to_string(result.summary.artifact_builds)});
      json.begin_object()
          .field("workers", workers)
          .field("wall_ms", result.summary.wall_ms)
          .field("programs_per_sec", result.summary.programs_per_sec)
          .field("speedup_vs_sequential", speedup)
          .field("trial_cpu_ms", result.summary.trial_cpu_ms)
          .field("identical_to_sequential", identical)
          .field("artifact_builds", result.summary.artifact_builds)
          .field("artifact_hits", result.summary.artifact_hits)
          .end_object();
    }
    json.end_array().end_object();
    std::cout << "\nbatch throughput (" << corpus.size()
              << " mixed-size programs, MC m=" << options.monte_carlo_trials
              << ", sequential loop " << format_fixed(sequential_ms, 1)
              << " ms):\n"
              << table.to_string();
  }

  // --------------------------------------------------- serve throughput ---
  // qspr_serve's daemon core measured end-to-end over loopback TCP: closed-
  // loop requests/sec and reply-latency percentiles at 1/2/4 concurrent
  // clients, plus the explicit shed rate when a pipelined burst overruns the
  // admission queue. Caveat: client threads, mapper threads, and the poll
  // loop all share this host's cores (CI pins one), so absolute RPS is a
  // lower bound — track the trajectory, don't capacity-plan from it.
  {
    const std::string qasm =
        "QUBIT q0,0\nQUBIT q1,0\nQUBIT q2,0\nH q0\nC-X q0,q1\nC-X q1,q2\n"
        "MEASURE q2\n";
    const int trials = smoke ? 3 : 8;
    const int per_client = smoke ? 8 : 48;

    const auto map_line = [&](const std::string& id, int m) {
      JsonWriter request;
      request.begin_object()
          .field("type", "map")
          .field("id", id)
          .field("qasm", qasm)
          .field("placer", "mc")
          .field("m", m)
          .field("seed", 3)
          .end_object();
      return request.str() + "\n";
    };
    const auto send_all = [](int fd, std::string_view data) {
      while (!data.empty()) {
        const IoResult io = write_some(fd, data);
        if (io.status == IoStatus::Error) return false;
        data.remove_prefix(io.bytes);
      }
      return true;
    };
    const auto read_line = [](int fd, std::string& buffer) {
      for (;;) {
        const std::size_t newline = buffer.find('\n');
        if (newline != std::string::npos) {
          std::string line = buffer.substr(0, newline);
          buffer.erase(0, newline + 1);
          return line;
        }
        char chunk[4096];
        const IoResult io = read_some(fd, chunk, sizeof chunk);
        if (io.status != IoStatus::Ok || io.bytes == 0) return std::string();
        buffer.append(chunk, io.bytes);
      }
    };
    const auto percentile = [](std::vector<double> sorted, double q) {
      if (sorted.empty()) return 0.0;
      std::sort(sorted.begin(), sorted.end());
      const auto index = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[std::min(index, sorted.size() - 1)];
    };

    TextTable table({"Clients", "Requests", "wall ms", "req/sec", "p50 ms",
                     "p99 ms", "errors"});
    json.key("serve_throughput").begin_object();
    json.field("trials_per_request", trials);
    json.field("requests_per_client", per_client);
    json.field("single_core_caveat",
               "clients, mappers, and poll loop share this host's cores; "
               "RPS is a lower bound on daemon capacity");
    json.key("runs").begin_array();
    for (const int clients : {1, 2, 4}) {
      ServeOptions serve_options;
      serve_options.port = 0;
      serve_options.workers = 1;
      serve_options.mapper_threads = std::min(clients, std::max(1, max_jobs));
      serve_options.max_queue = 64;
      MappingServer server(serve_options);
      server.start();
      std::thread serving([&server] { (void)server.serve(); });

      std::mutex merge_mutex;
      std::vector<double> latencies_ms;
      long long ok = 0;
      long long errors = 0;
      const Stopwatch wall;
      std::vector<std::thread> pumps;
      pumps.reserve(static_cast<std::size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        pumps.emplace_back([&, c] {
          const FileDescriptor fd = connect_client("127.0.0.1", server.port());
          std::string buffer;
          std::vector<double> laps;
          long long local_ok = 0;
          long long local_errors = 0;
          for (int r = 0; r < per_client; ++r) {
            const std::string line = map_line(
                "c" + std::to_string(c) + "-" + std::to_string(r), trials);
            const Stopwatch lap;
            if (!send_all(fd.get(), line)) {
              ++local_errors;
              break;
            }
            const std::string reply = read_line(fd.get(), buffer);
            laps.push_back(lap.elapsed_ms());
            if (reply.find("\"ok\":true") != std::string::npos) {
              ++local_ok;
            } else {
              ++local_errors;
            }
          }
          const std::lock_guard<std::mutex> lock(merge_mutex);
          latencies_ms.insert(latencies_ms.end(), laps.begin(), laps.end());
          ok += local_ok;
          errors += local_errors;
        });
      }
      for (std::thread& pump : pumps) pump.join();
      const double wall_ms = wall.elapsed_ms();
      server.request_drain();
      serving.join();

      const long long requests = ok + errors;
      const double rps =
          wall_ms > 0.0 ? static_cast<double>(ok) * 1000.0 / wall_ms : 0.0;
      const double p50 = percentile(latencies_ms, 0.50);
      const double p99 = percentile(latencies_ms, 0.99);
      table.add_row({std::to_string(clients), std::to_string(requests),
                     format_fixed(wall_ms, 1), format_fixed(rps, 2),
                     format_fixed(p50, 2), format_fixed(p99, 2),
                     std::to_string(errors)});
      json.begin_object()
          .field("clients", clients)
          .field("requests", requests)
          .field("wall_ms", wall_ms)
          .field("requests_per_sec", rps)
          .field("p50_ms", p50)
          .field("p99_ms", p99)
          .field("errors", errors)
          .end_object();
    }
    json.end_array();

    // Overload shed: one slow mapper behind a 2-slot queue against a
    // pipelined burst. Every request must get an explicit reply — shed ones
    // say overloaded with retry_after_ms — and the shed rate is the metric.
    {
      ServeOptions serve_options;
      serve_options.port = 0;
      serve_options.workers = 1;
      serve_options.mapper_threads = 1;
      serve_options.max_queue = 2;
      serve_options.retry_after_ms = 5;
      MappingServer server(serve_options);
      server.start();
      std::thread serving([&server] { (void)server.serve(); });

      const int burst = smoke ? 12 : 32;
      const FileDescriptor fd = connect_client("127.0.0.1", server.port());
      std::string pipelined;
      for (int r = 0; r < burst; ++r) {
        pipelined += map_line("burst-" + std::to_string(r),
                              std::max(trials, smoke ? 8 : 24));
      }
      long long shed = 0;
      long long answered = 0;
      if (send_all(fd.get(), pipelined)) {
        std::string buffer;
        for (int r = 0; r < burst; ++r) {
          const std::string reply = read_line(fd.get(), buffer);
          if (reply.empty()) break;
          ++answered;
          if (reply.find("\"code\":\"overloaded\"") != std::string::npos) {
            ++shed;
          }
        }
      }
      server.request_drain();
      serving.join();

      const double shed_rate =
          burst > 0 ? static_cast<double>(shed) / burst : 0.0;
      json.key("overload").begin_object();
      json.field("burst", burst);
      json.field("max_queue", 2);
      json.field("answered", answered);
      json.field("shed", shed);
      json.field("shed_rate", shed_rate);
      json.end_object();
      std::cout << "\nserve throughput (loopback TCP, MC m=" << trials
                << ", " << per_client << " requests/client; overload burst "
                << burst << " -> " << shed << " shed, " << answered
                << " answered):\n"
                << table.to_string();
    }
    json.end_object();
  }

  // ------------------------------------------------------ shard failover ---
  // Availability of the sharded front-end under seeded worker SIGKILLs:
  // real qspr_serve processes behind an in-process ShardSupervisor, one
  // retrying client. Three numbers matter: availability (requests answered
  // ok / sent — the exactly-once ledger makes lost a hard failure, not a
  // statistic), tail latency including the kills, and recovery (kill ->
  // both shards Up again). Skipped with a notice when the worker binary is
  // not next to this one (set QSPR_SERVE_BIN to point at it).
  {
    const auto worker_binary = [] {
      const char* env = std::getenv("QSPR_SERVE_BIN");
      if (env != nullptr && *env != '\0') return std::string(env);
      char buffer[4096];
      const ssize_t n =
          ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
      if (n <= 0) return std::string();
      buffer[n] = '\0';
      const std::string path(buffer);
      const std::size_t slash = path.find_last_of('/');
      if (slash == std::string::npos) return std::string();
      return path.substr(0, slash + 1) + "qspr_serve";
    }();
    if (worker_binary.empty() ||
        ::access(worker_binary.c_str(), X_OK) != 0) {
      std::cout << "\nshard_failover: skipped (no qspr_serve next to "
                   "bench_runner; set QSPR_SERVE_BIN)\n";
      json.key("shard_failover").begin_object();
      json.field("skipped", true);
      json.end_object();
    } else {
      ShardSupervisorOptions sup;
      sup.shard_count = 2;
      sup.worker_binary = worker_binary;
      sup.worker_args = {"--mapper-threads", "1", "--jobs", "1"};
      sup.health_interval_ms = 100;
      sup.health_timeout_ms = 1500;
      sup.restart_backoff.base_ms = 50;
      sup.restart_backoff.cap_ms = 500;
      sup.restart_backoff.seed = 1;
      sup.max_redispatch = 8;
      sup.drain_deadline_ms = 30'000;
      ShardSupervisor supervisor(sup);
      supervisor.start();
      std::thread serving([&supervisor] { (void)supervisor.serve(); });

      ShardClientOptions copts;
      copts.port = supervisor.port();
      copts.request_timeout_ms = 120'000;
      copts.max_attempts = 40;
      copts.backoff.base_ms = 20;
      copts.backoff.cap_ms = 200;
      copts.backoff.seed = 7;
      ShardClient client(copts);

      const auto shards_up = [&client]() -> int {
        std::string reply;
        if (!client.try_request(R"({"type":"health","id":"h"})", reply)) {
          return -1;
        }
        const std::size_t pos = reply.find("\"shards_up\":");
        if (pos == std::string::npos) return -1;
        return std::atoi(reply.c_str() + pos + 12);
      };
      const auto wait_for_up = [&shards_up](int want) {
        const Stopwatch waited;
        while (shards_up() < want && waited.elapsed_ms() < 30'000.0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return waited.elapsed_ms();
      };
      const auto map_line = [](const std::string& id, int m) {
        qspr::JsonWriter request;
        request.begin_object()
            .field("type", "map")
            .field("id", id)
            .field("qasm", "QUBIT q0,0\nQUBIT q1,0\nH q0\nC-X q0,q1\n"
                           "MEASURE q1\n")
            .field("placer", "mc")
            .field("m", m)
            .field("seed", 3)
            .end_object();
        return request.str();
      };
      const auto percentile = [](std::vector<double> values, double q) {
        if (values.empty()) return 0.0;
        std::sort(values.begin(), values.end());
        const auto index = static_cast<std::size_t>(
            q * static_cast<double>(values.size() - 1) + 0.5);
        return values[std::min(index, values.size() - 1)];
      };
      wait_for_up(2);

      // Recovery: SIGKILL the shard all requests route to, time until both
      // shards report Up again (cooldown escalates per consecutive trip,
      // resetting on the health success in between).
      const int target = shard_for_fabric("", 2);
      std::vector<double> recovery_ms;
      const int recovery_reps = smoke ? 2 : 3;
      for (int rep = 0; rep < recovery_reps; ++rep) {
        const std::vector<int> pids = supervisor.worker_pids();
        if (pids[static_cast<std::size_t>(target)] > 0) {
          ::kill(pids[static_cast<std::size_t>(target)], SIGKILL);
        }
        recovery_ms.push_back(wait_for_up(2));
      }

      // Availability: sequential requests with SIGKILLs landing every
      // `kill_every` requests; the retrying client must see every one of
      // them answered ok. A request() throw is a LOST reply — the one
      // outcome this whole subsystem exists to rule out — and fails the
      // bench run outright.
      const int requests = smoke ? 16 : 48;
      const int kill_every = smoke ? 6 : 12;
      const int trials = smoke ? 24 : 48;
      long long ok = 0;
      long long error_replies = 0;
      long long lost = 0;
      int kills = recovery_reps;
      std::vector<double> laps;
      const Stopwatch wall;
      for (int r = 0; r < requests; ++r) {
        if (r > 0 && r % kill_every == 0) {
          const std::vector<int> pids = supervisor.worker_pids();
          if (pids[static_cast<std::size_t>(target)] > 0) {
            ::kill(pids[static_cast<std::size_t>(target)], SIGKILL);
            ++kills;
          }
        }
        const Stopwatch lap;
        try {
          const std::string reply =
              client.request(map_line("fo-" + std::to_string(r), trials));
          laps.push_back(lap.elapsed_ms());
          if (reply.find("\"ok\":true") != std::string::npos) {
            ++ok;
          } else {
            ++error_replies;
          }
        } catch (const Error&) {
          ++lost;
        }
      }
      const double wall_ms = wall.elapsed_ms();
      wait_for_up(2);
      const SupervisorMetrics metrics = supervisor.metrics();
      supervisor.request_drain();
      serving.join();

      const double availability =
          requests > 0 ? static_cast<double>(ok) / requests : 0.0;
      double recovery_p50 = percentile(recovery_ms, 0.50);
      json.key("shard_failover").begin_object();
      json.field("shards", 2);
      json.field("requests", static_cast<long long>(requests));
      json.field("kills", static_cast<long long>(kills));
      json.field("ok", ok);
      json.field("error_replies", error_replies);
      json.field("lost", lost);
      json.field("availability", availability);
      json.field("wall_ms", wall_ms);
      json.field("p50_ms", percentile(laps, 0.50));
      json.field("p99_ms", percentile(laps, 0.99));
      json.field("recovery_p50_ms", recovery_p50);
      json.field("redispatches", metrics.redispatches);
      json.field("crashes", metrics.crashes);
      json.field("accepted", metrics.accepted);
      json.field("answered", metrics.answered);
      json.field("single_core_caveat",
                 "supervisor, two workers, and the client share this "
                 "host's cores; latency tails and recovery are upper "
                 "bounds");
      json.end_object();
      std::cout << "\nshard failover (2 shards, " << kills << " SIGKILLs, "
                << requests << " requests): availability "
                << format_fixed(availability * 100.0, 1) << "%, lost "
                << lost << ", p99 " << format_fixed(percentile(laps, 0.99), 1)
                << " ms, recovery p50 " << format_fixed(recovery_p50, 0)
                << " ms\n";
      if (lost != 0 || metrics.accepted != metrics.answered) {
        std::cerr << "shard_failover: reply ledger broken (lost=" << lost
                  << ", accepted=" << metrics.accepted
                  << ", answered=" << metrics.answered << ")\n";
        return 1;
      }
    }
  }

  json.end_object();

  std::ofstream file(output);
  if (!file) {
    std::cerr << "cannot write " << output << "\n";
    return 1;
  }
  file << json.str() << "\n";
  std::cout << "\nwrote " << output << "\n";

  // -------------------------------------------------- smoke perf gate ---
  // Catch order-of-magnitude routing regressions in CI: every pathfinder_*
  // sample of this smoke run must stay within 2x of the checked-in
  // trajectory's ns_per_query. The factor absorbs smoke-sized repetition
  // noise; genuinely slower runners can export QSPR_SMOKE_NO_PERF_GATE=1.
  if (smoke) {
    if (std::getenv("QSPR_SMOKE_NO_PERF_GATE") != nullptr) {
      std::cout << "perf gate: skipped (QSPR_SMOKE_NO_PERF_GATE set)\n";
      return 0;
    }
    std::ifstream baseline_file(baseline_path);
    if (!baseline_file) {
      std::cout << "perf gate: no baseline at " << baseline_path
                << ", skipped\n";
      return 0;
    }
    std::ostringstream baseline_stream;
    baseline_stream << baseline_file.rdbuf();
    JsonValue baseline;
    try {
      baseline = parse_json(baseline_stream.str());
    } catch (const std::exception& e) {
      // A baseline the reader cannot parse would silently disarm the gate
      // CI relies on: fail loudly instead.
      std::cerr << "perf gate: baseline " << baseline_path
                << " is not valid JSON (" << e.what()
                << ") — re-record it with this harness\n";
      return 3;
    }

    bool failed = false;
    int matched = 0;
    int missing = 0;
    for (const PathFinderSample& sample : gated_samples) {
      const double recorded = baseline_ns_per_query(
          baseline, sample.name, sample.engine, sample.config);
      if (recorded <= 0.0) {
        // New suite with nothing recorded yet: not a regression, but say so
        // explicitly — a silently skipped suite reads as "gated" when it
        // is not.
        ++missing;
        std::cout << "perf gate: " << sample.name << "/" << sample.engine
                  << "/" << sample.config << " missing from baseline "
                  << baseline_path
                  << " — not gated; re-record to arm it\n";
        continue;
      }
      ++matched;
      const double ratio = sample.ns_per_query / recorded;
      const bool regressed = ratio > 2.0;
      std::cout << "perf gate: " << sample.name << "/" << sample.engine
                << "/" << sample.config << " "
                << format_fixed(sample.ns_per_query, 0)
                << " ns/query vs recorded " << format_fixed(recorded, 0)
                << " (" << format_fixed(ratio, 2) << "x)"
                << (regressed ? "  REGRESSION" : "") << "\n";
      failed = failed || regressed;
    }
    if (failed) {
      std::cerr << "perf gate: pathfinder regression above 2x against "
                << baseline_path << "\n";
      return 3;
    }
    if (matched == 0 && !gated_samples.empty()) {
      // A baseline that matches no sample at all means the recorded file
      // and this harness disagree wholesale (renamed suites/fields):
      // fail loudly instead of silently disarming the gate.
      std::cerr << "perf gate: baseline " << baseline_path << " matched 0/"
                << gated_samples.size()
                << " pathfinder samples — re-record it with this harness\n";
      return 3;
    }
  }
  return 0;
}
