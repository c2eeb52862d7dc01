// Microbenchmarks (google-benchmark): the hot paths of the mapper — routing
// graph construction, single Dijkstra queries, QIDG analyses and a full
// center-placement mapping pass.
#include <benchmark/benchmark.h>

#include "core/qspr.hpp"

namespace {

using namespace qspr;

const Fabric& paper_fabric() {
  static const Fabric fabric = make_paper_fabric();
  return fabric;
}

const RoutingGraph& paper_routing() {
  static const RoutingGraph graph(paper_fabric());
  return graph;
}

void BM_RoutingGraphConstruction(benchmark::State& state) {
  const Fabric& fabric = paper_fabric();
  for (auto _ : state) {
    RoutingGraph graph(fabric);
    benchmark::DoNotOptimize(graph.node_count());
  }
}
BENCHMARK(BM_RoutingGraphConstruction);

void BM_DijkstraCornerToCorner(benchmark::State& state) {
  const Fabric& fabric = paper_fabric();
  CongestionState congestion(fabric.segment_count(), fabric.junction_count());
  Router router(paper_routing(), TechnologyParams{});
  SearchArena<Duration> arena;
  const TrapId from = fabric.traps().front().id;
  const TrapId to = fabric.traps().back().id;
  for (auto _ : state) {
    auto path = router.route_trap_to_trap(from, to, congestion, arena);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_DijkstraCornerToCorner);

void BM_DijkstraNeighbourTraps(benchmark::State& state) {
  const Fabric& fabric = paper_fabric();
  CongestionState congestion(fabric.segment_count(), fabric.junction_count());
  Router router(paper_routing(), TechnologyParams{});
  SearchArena<Duration> arena;
  const auto near_center = fabric.traps_by_distance(fabric.center());
  for (auto _ : state) {
    auto path = router.route_trap_to_trap(near_center[0], near_center[1],
                                          congestion, arena);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_DijkstraNeighbourTraps);

// One integer-cost Dijkstra haul per frontier kind (0 = binary heap,
// 1 = bucket queue), forced through the test hook. Identical pop order by
// contract — the spread across rows is the frontier's pure constant factor.
void BM_FrontierQueue(benchmark::State& state) {
  const Fabric& fabric = paper_fabric();
  CongestionState congestion(fabric.segment_count(), fabric.junction_count());
  Router router(paper_routing(), TechnologyParams{});
  force_frontier_kind(static_cast<FrontierKind>(state.range(0)));
  SearchArena<Duration> arena;
  const TrapId from = fabric.traps().front().id;
  const TrapId to = fabric.traps().back().id;
  const std::uint64_t settles_before = arena.settle_count();
  for (auto _ : state) {
    auto path = router.route_trap_to_trap(from, to, congestion, arena);
    benchmark::DoNotOptimize(path);
  }
  clear_frontier_kind_override();
  state.counters["settles_per_query"] = benchmark::Counter(
      static_cast<double>(arena.settle_count() - settles_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(to_string(arena.frontier()));
}
BENCHMARK(BM_FrontierQueue)->DenseRange(0, 1);

void BM_QidgBuildAndAnalyses(benchmark::State& state) {
  const Program program = make_encoder(QeccCode::Q23_1_7);
  const TechnologyParams params;
  for (auto _ : state) {
    const DependencyGraph graph = DependencyGraph::build(program);
    benchmark::DoNotOptimize(graph.critical_path_latency(params));
    benchmark::DoNotOptimize(graph.descendant_counts());
    benchmark::DoNotOptimize(graph.longest_path_to_sink(params));
  }
}
BENCHMARK(BM_QidgBuildAndAnalyses);

void BM_MapCenterPlacement(benchmark::State& state) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric& fabric = paper_fabric();
  MapperOptions options;
  options.placer = PlacerKind::Center;
  for (auto _ : state) {
    const MapResult result = map_program(program, fabric, options);
    benchmark::DoNotOptimize(result.latency);
  }
}
BENCHMARK(BM_MapCenterPlacement);

void BM_MvfbIteration(benchmark::State& state) {
  const Program program = make_encoder(QeccCode::Q5_1_3);
  const Fabric& fabric = paper_fabric();
  MapperOptions options;
  options.mvfb_seeds = 1;
  for (auto _ : state) {
    const MapResult result = map_program(program, fabric, options);
    benchmark::DoNotOptimize(result.latency);
  }
}
BENCHMARK(BM_MvfbIteration);

}  // namespace

BENCHMARK_MAIN();
