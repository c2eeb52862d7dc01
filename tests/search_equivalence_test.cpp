// Equivalence and determinism guarantees of the optimized routing core.
//
// The arena-backed A* engine must negotiate the same solution quality as the
// reference Dijkstra engine (same total delay, same convergence), and the
// whole pipeline must be bit-for-bit deterministic across runs. The CSR
// adjacency layout is also checked structurally against the graph
// invariants the searches rely on.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fabric/linear_fabric.hpp"
#include "fabric/quale_fabric.hpp"
#include "route/heuristic.hpp"
#include "route/pathfinder.hpp"
#include "route/router.hpp"

namespace qspr {
namespace {

std::vector<NetRequest> random_nets(const Fabric& fabric, int count,
                                    std::uint64_t seed) {
  const auto traps = fabric.traps_by_distance(fabric.center());
  Rng rng(seed);
  std::vector<NetRequest> nets;
  const std::size_t pool = std::min<std::size_t>(traps.size(), 64);
  for (int i = 0; i < count; ++i) {
    const TrapId from = traps[rng.uniform_index(pool)];
    TrapId to = traps[rng.uniform_index(pool)];
    while (to == from) to = traps[rng.uniform_index(pool)];
    nets.push_back({from, to});
  }
  return nets;
}

PathFinderOptions with_engine(PathFinderEngine engine, bool turn_aware) {
  PathFinderOptions options;
  options.engine = engine;
  options.turn_aware = turn_aware;
  return options;
}

// Strict negotiation-level equality (total delay, iterations, overuse) is
// slightly stronger than A* optimality guarantees: both engines find
// minimum-negotiated-cost paths per query, but equal-cost ties could in
// principle resolve to paths with different footprints and steer later
// iterations apart. The fabrics and seeds here are fixed, so the check is
// deterministic; if a future fabric/seed trips only the strict fields while
// per-query costs still match, weaken those assertions — that is a tie
// artifact, not an engine bug.
void expect_equivalent(const Fabric& fabric, const std::vector<NetRequest>& nets,
                       bool turn_aware) {
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const PathFinderResult reference = route_nets_negotiated(
      graph, params, nets,
      with_engine(PathFinderEngine::ReferenceDijkstra, turn_aware));
  const PathFinderResult optimized = route_nets_negotiated(
      graph, params, nets,
      with_engine(PathFinderEngine::AStarArena, turn_aware));

  EXPECT_EQ(optimized.total_delay, reference.total_delay);
  EXPECT_EQ(optimized.converged, reference.converged);
  EXPECT_EQ(optimized.iterations_used, reference.iterations_used);
  EXPECT_EQ(optimized.overused_resources, reference.overused_resources);
}

TEST(SearchEquivalenceTest, LinearFabricMatchesReference) {
  const Fabric fabric = make_linear_fabric(10);
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    expect_equivalent(fabric, random_nets(fabric, 6, seed),
                      /*turn_aware=*/true);
  }
}

TEST(SearchEquivalenceTest, QualeFabricMatchesReference) {
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  for (const std::uint64_t seed : {3u, 11u, 42u}) {
    expect_equivalent(fabric, random_nets(fabric, 8, seed),
                      /*turn_aware=*/true);
  }
}

TEST(SearchEquivalenceTest, TurnUnawareModeMatchesReference) {
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  expect_equivalent(fabric, random_nets(fabric, 8, 5),
                    /*turn_aware=*/false);
}

TEST(SearchEquivalenceTest, PaperFabricLongHaulsMatchReference) {
  // The paper fabric's corner-to-corner haul, the longest leg any fabric
  // here can produce, batched with central nets.
  const Fabric fabric = make_paper_fabric();
  const NetRequest corner_haul{fabric.traps().front().id,
                               fabric.traps().back().id};
  for (const std::uint64_t seed : {97u, 53u}) {
    std::vector<NetRequest> nets = {corner_haul};
    const auto random = random_nets(fabric, 12, seed);
    nets.insert(nets.end(), random.begin(), random.end());
    expect_equivalent(fabric, nets, /*turn_aware=*/true);
  }
}

TEST(SearchEquivalenceTest, ContendedNetsStillMatchReference) {
  // All nets share one corridor so negotiation must actually iterate.
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  std::vector<NetRequest> nets;
  const TrapId left = fabric.trap_at({1, 1});
  const TrapId right = fabric.trap_at({1, 7});
  ASSERT_TRUE(left.is_valid());
  ASSERT_TRUE(right.is_valid());
  for (int i = 0; i < 4; ++i) nets.push_back({left, right});
  expect_equivalent(fabric, nets, /*turn_aware=*/true);
}

TEST(SearchDeterminismTest, RepeatedRunsProduceIdenticalPaths) {
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const auto nets = random_nets(fabric, 10, 17);

  const PathFinderResult first = route_nets_negotiated(graph, params, nets);
  const PathFinderResult second = route_nets_negotiated(graph, params, nets);
  ASSERT_EQ(first.paths.size(), second.paths.size());
  for (std::size_t i = 0; i < first.paths.size(); ++i) {
    EXPECT_EQ(first.paths[i].nodes, second.paths[i].nodes) << "net " << i;
  }
  EXPECT_EQ(first.total_delay, second.total_delay);
  EXPECT_EQ(first.iterations_used, second.iterations_used);
}

TEST(SearchDeterminismTest, PathFinderScratchReuseDoesNotPerturbResults) {
  // One PathFinderScratch reused across batches — on different fabrics too
  // (the per-worker ownership pattern) — must negotiate exactly like a
  // fresh scratch per batch.
  const TechnologyParams params;
  PathFinderScratch shared;
  for (const auto& dims :
       {QualeFabricParams{3, 3, 4}, QualeFabricParams{4, 4, 4}}) {
    const Fabric fabric = make_quale_fabric(dims);
    const RoutingGraph graph(fabric);
    for (const std::uint64_t seed : {2u, 9u, 31u}) {
      const auto nets = random_nets(fabric, 8, seed);
      const PathFinderResult reused =
          route_nets_negotiated(graph, params, nets, {}, shared);
      const PathFinderResult fresh =
          route_nets_negotiated(graph, params, nets);
      ASSERT_EQ(reused.paths.size(), fresh.paths.size());
      for (std::size_t i = 0; i < reused.paths.size(); ++i) {
        EXPECT_EQ(reused.paths[i].nodes, fresh.paths[i].nodes) << "net " << i;
      }
      EXPECT_EQ(reused.total_delay, fresh.total_delay);
      EXPECT_EQ(reused.iterations_used, fresh.iterations_used);
      EXPECT_EQ(reused.nodes_settled, fresh.nodes_settled);
    }
  }
}

TEST(SearchDeterminismTest, RouterArenaReuseDoesNotPerturbResults) {
  // An arena reused across queries (the per-worker TrialContext pattern)
  // must answer exactly like a fresh arena per query.
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  CongestionState congestion(fabric.segment_count(), fabric.junction_count());
  const Router router(graph, params);
  SearchArena<Duration> shared_arena;

  const auto traps = fabric.traps_by_distance(fabric.center());
  for (std::size_t i = 0; i + 1 < std::min<std::size_t>(traps.size(), 12);
       ++i) {
    SearchArena<Duration> fresh_arena;
    Duration shared_cost = 0;
    Duration fresh_cost = 0;
    const auto a = router.route_trap_to_trap(
        traps[i], traps[i + 1], congestion, shared_arena, &shared_cost);
    const auto b = router.route_trap_to_trap(
        traps[i], traps[i + 1], congestion, fresh_arena, &fresh_cost);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->nodes, b->nodes);
    EXPECT_EQ(shared_cost, fresh_cost);
  }
}

PathFinderOptions with_partial_ripup(bool partial) {
  PathFinderOptions options;
  options.partial_ripup = partial;
  // Pin the classic negotiation schedule so partial rip-up is isolated
  // against the same fixed trajectory (the adaptive schedule is ablated
  // separately in the saturated_overload bench suite).
  options.adaptive_schedule = false;
  return options;
}

TEST(PartialRipupTest, MatchesFullRipupOnConvergingCases) {
  // Partial rip-up only skips nets whose paths are conflict-free; on every
  // converging suite the negotiated solution must land on the same total
  // delay as the classic full-sweep loop (the trajectories may visit
  // different intermediate states, but the converged result may not differ).
  // Seeds are pinned to cases where the full-sweep loop converges. (On rare
  // other seeds partial rip-up converges to an equal-or-better delay via a
  // different tie resolution — e.g. {3,3,4} seed 47 lands 284 vs 320 — which
  // is a solution-quality difference, not an equivalence bug.)
  struct Case {
    Fabric fabric;
    int nets;
    std::vector<std::uint64_t> seeds;
  };
  const std::vector<Case> cases = {
      {make_quale_fabric({3, 3, 4}), 8, {1u, 2u, 3u}},
      {make_quale_fabric({4, 4, 4}), 10, {1u, 2u, 4u}},
  };
  for (const Case& c : cases) {
    const RoutingGraph graph(c.fabric);
    const TechnologyParams params;
    for (const std::uint64_t seed : c.seeds) {
      const auto nets = random_nets(c.fabric, c.nets, seed);
      const PathFinderResult full = route_nets_negotiated(
          graph, params, nets, with_partial_ripup(false));
      const PathFinderResult partial = route_nets_negotiated(
          graph, params, nets, with_partial_ripup(true));
      ASSERT_TRUE(full.converged) << "pick a converging seed";
      ASSERT_TRUE(partial.converged) << "seed " << seed;
      EXPECT_EQ(partial.total_delay, full.total_delay) << "seed " << seed;
      // Partial rip-up must actually skip work once nets settle.
      EXPECT_LE(partial.searches_performed,
                static_cast<long long>(nets.size()) * partial.iterations_used);
    }
  }
}

TEST(HeuristicWeightTest, ExplicitUnitWeightIsBitIdenticalToDefault) {
  // heuristic_weight = 1.0 multiplies every f-value by 1.0, an IEEE no-op,
  // so the search trajectory, paths and counters equal the default run's.
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const auto nets = random_nets(fabric, 12, seed);
    PathFinderOptions weighted;
    weighted.heuristic_weight = 1.0;  // explicit, same value
    const PathFinderResult a = route_nets_negotiated(graph, params, nets);
    const PathFinderResult b =
        route_nets_negotiated(graph, params, nets, weighted);
    ASSERT_EQ(a.paths.size(), b.paths.size());
    for (std::size_t i = 0; i < a.paths.size(); ++i) {
      EXPECT_EQ(a.paths[i].nodes, b.paths[i].nodes) << "net " << i;
    }
    EXPECT_EQ(a.total_delay, b.total_delay);
    EXPECT_EQ(a.iterations_used, b.iterations_used);
    EXPECT_EQ(a.nodes_settled, b.nodes_settled);
  }
}

TEST(HeuristicWeightTest, UncontendedDelaysBoundedByWeight) {
  // One net at a time, no congestion: the negotiated cost equals the
  // physical delay, so each weighted path's delay must stay within w times
  // the exact search's.
  const Fabric fabric = make_paper_fabric();
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  std::vector<NetRequest> pairs = {
      {fabric.traps().front().id, fabric.traps().back().id},
  };
  const auto random = random_nets(fabric, 12, 53);
  pairs.insert(pairs.end(), random.begin(), random.end());
  for (const double w : {1.1, 1.5}) {
    PathFinderOptions weighted;
    weighted.heuristic_weight = w;
    for (const NetRequest& net : pairs) {
      const PathFinderResult exact =
          route_nets_negotiated(graph, params, {net});
      const PathFinderResult sub =
          route_nets_negotiated(graph, params, {net}, weighted);
      EXPECT_LE(static_cast<double>(sub.total_delay),
                w * static_cast<double>(exact.total_delay) + 1e-9)
          << "w=" << w << " " << net.from << " -> " << net.to;
    }
  }
}

TEST(HeuristicWeightTest, RejectsWeightBelowOne) {
  // Non-finite weights are rejected too: an infinite weight makes the bound
  // at the target 0 * inf = NaN, and NaN keys break the frontier's order.
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  for (const double weight :
       {0.9, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    PathFinderOptions options;
    options.heuristic_weight = weight;
    EXPECT_THROW(route_nets_negotiated(graph, TechnologyParams{},
                                       random_nets(fabric, 2, 1), options),
                 Error)
        << "weight " << weight;
  }
}

TEST(CsrGraphTest, EdgeSpansCoverSymmetricGraph) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);

  std::size_t total = 0;
  for (std::size_t u = 0; u < graph.node_count(); ++u) {
    const RouteNodeId id = RouteNodeId::from_index(u);
    const EdgeSpan span = graph.edges(id);
    EXPECT_FALSE(span.empty()) << "isolated route node " << u;
    total += span.size();
    for (const RouteEdge& edge : span) {
      ASSERT_TRUE(edge.to.is_valid());
      ASSERT_LT(edge.to.index(), graph.node_count());
      // Symmetry: the reverse edge exists with the same turn flag.
      bool found = false;
      for (const RouteEdge& back : graph.edges(edge.to)) {
        if (back.to == id && back.is_turn == edge.is_turn) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "missing reverse edge " << edge.to << " -> " << u;
    }
  }
  EXPECT_EQ(total, graph.edge_count());
}

TEST(HeuristicTest, GridLowerBoundIsConsistentAcrossAllEdges) {
  // h(u) <= w(u, v) + h(v) for every directed edge and every trap target —
  // the property that keeps A*'s settled-node shortcut exact.
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const Duration turn_cost = params.t_turn;

  for (const Trap& trap : fabric.traps()) {
    const Position target = trap.position;
    const RouteNodeId target_node = graph.trap_node(trap.id);
    for (std::size_t u = 0; u < graph.node_count(); ++u) {
      const RouteNodeId id = RouteNodeId::from_index(u);
      const Duration hu =
          grid_lower_bound(graph.node(id), target, params.t_move, turn_cost);
      for (const RouteEdge& edge : graph.edges(id)) {
        // Edges into non-target traps are pruned by every search (traps are
        // endpoints only), so consistency is only required elsewhere.
        const RouteNode& v = graph.node(edge.to);
        if (v.is_trap && edge.to != target_node) continue;
        // Minimum possible selection weight of this edge.
        const Duration weight = edge.is_turn ? turn_cost : params.t_move;
        const Duration hv =
            grid_lower_bound(v, target, params.t_move, turn_cost);
        EXPECT_LE(hu, weight + hv)
            << "inconsistent bound on edge " << u << " -> " << edge.to;
      }
    }
  }
}

}  // namespace
}  // namespace qspr
