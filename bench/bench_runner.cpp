// Routing-core benchmark harness: four suites that time the router and the
// negotiated PathFinder on the paper fabric (45x85, Fig. 4) and write a
// machine-readable BENCH_routing.json, so every perf change leaves a
// recorded trajectory.
//
//   bench_runner [--smoke] [--output PATH] [--baseline PATH]
//
//   frontier_queue      Router Dijkstra (binary-heap frontier) over one
//                       mixed query set (gated);
//   pathfinder_runs     the optimized negotiation stack against the
//                       baseline configuration at 8, 16 and 32 nets
//                       (--smoke: 8 and 32) (gated);
//   saturated_overload  heavy contention with distinct endpoints, each
//                       mechanism toggled on its own (ablation, not gated);
//   alt_longhaul        8 uncontended nets across the whole fabric (gated).
//
// --smoke shrinks repetition counts to a few iterations (CI bitrot guard)
// and, when a baseline BENCH_routing.json is readable, gates the per-query
// numbers of the gated suites against it (>2x regression fails the run; set
// QSPR_SMOKE_NO_PERF_GATE=1 on slow runners to skip the gate); rows missing
// from the baseline are reported explicitly, never skipped in silence.
// --output defaults to BENCH_routing.json in the working directory;
// --baseline defaults to the checked-in BENCH_routing.json (repo root).
//
// Reported per PathFinder row: ns/query (one nominal inner search: nets x
// iterations), ns/rep (one whole negotiation — the number that multiplies
// through the trial pipeline), searches actually performed (partial rip-up
// skips clean nets), negotiation iterations, convergence and residual
// over-use. The baseline configuration (reference Dijkstra engine, full
// rip-up, classic schedule) runs live next to the optimized stack, so
// speedups are measured against pre-optimization behaviour — never against
// a number frozen in a doc.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "route/pathfinder.hpp"

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
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--output" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::cerr << "usage: bench_runner [--smoke] [--output PATH] "
                   "[--baseline PATH]\n";
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

  // ------------------------------------------------------ frontier-queue ---
  // The integer-cost Router Dijkstra (its arena's frontier is the binary
  // heap every search uses) over a mixed long-haul + local workload; the row
  // feeds the --smoke perf gate.
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
    SearchArena<Duration> arena;
    Duration delay_sum = 0;
    const double ns_per_rep = qspr_bench::time_ns_per_rep(reps, [&] {
      delay_sum = 0;
      for (const Query& q : queries) {
        const auto path =
            router.route_trap_to_trap(q.from, q.to, congestion, arena);
        delay_sum += path.has_value() ? path->total_delay() : -1;
      }
    });
    const auto settles = static_cast<long long>(arena.settle_count());
    const double ns_per_query =
        ns_per_rep / static_cast<double>(queries.size());
    const double settles_per_sec =
        ns_per_rep > 0.0
            ? static_cast<double>(settles) / static_cast<double>(reps) /
                  (ns_per_rep * 1e-9)
            : 0.0;
    std::cout << "frontier_queue/binary_heap: "
              << format_fixed(ns_per_query, 0) << " ns/query, "
              << format_fixed(settles_per_sec / 1e6, 2) << " M settles/s\n";
    json.begin_object()
        .field("name", "router_dijkstra")
        .field("engine", "binary_heap")
        .field("config", "paper_45x85_mixed")
        .field("repetitions", reps)
        .field("queries_per_rep", static_cast<long long>(queries.size()))
        .field("ns_per_query", ns_per_query)
        .field("nodes_settled", settles)
        .field("settles_per_sec", settles_per_sec)
        .field("path_delay_us", static_cast<long long>(delay_sum))
        .end_object();
    json.end_array();
    PathFinderSample gate_row;
    gate_row.name = "router_dijkstra";
    gate_row.engine = "binary_heap";
    gate_row.config = "paper_45x85_mixed";
    gate_row.repetitions = reps;
    gate_row.ns_per_query = ns_per_query;
    gate_row.nodes_settled = settles;
    gated_samples.push_back(std::move(gate_row));
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
