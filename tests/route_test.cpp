// Unit tests for the routing graph, congestion state, Dijkstra router and
// path lowering. Expected delays are hand-computed on the 5x5 tile fabric:
//
//     J---J        traps at (1,1),(1,3),(3,1),(3,3); every trap has a
//     |T.T|        horizontal port on the top/bottom channel row and a
//     |...|        vertical port on the left/right channel column.
//     |T.T|
//     J---J
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fabric/quale_fabric.hpp"
#include "fabric/text_io.hpp"
#include "route/congestion.hpp"
#include "route/path.hpp"
#include "route/router.hpp"
#include "route/routing_graph.hpp"

namespace qspr {
namespace {

class RouteTest : public ::testing::Test {
 protected:
  RouteTest()
      : fabric_(make_quale_fabric({2, 2, 4})),
        graph_(fabric_),
        congestion_(fabric_.segment_count(), fabric_.junction_count()) {}

  TrapId trap_at(int row, int col) const {
    const TrapId id = fabric_.trap_at({row, col});
    EXPECT_TRUE(id.is_valid());
    return id;
  }

  Fabric fabric_;
  RoutingGraph graph_;
  CongestionState congestion_;
  TechnologyParams params_;
  SearchArena<Duration> arena_;
};

TEST_F(RouteTest, GraphNodesFollowConnectivity) {
  // Junctions carry both orientations.
  EXPECT_TRUE(graph_.node_at({0, 0}, Orientation::Horizontal).is_valid());
  EXPECT_TRUE(graph_.node_at({0, 0}, Orientation::Vertical).is_valid());
  // A mid-column channel cell with no trap beside it is vertical-only.
  EXPECT_TRUE(graph_.node_at({2, 0}, Orientation::Vertical).is_valid());
  EXPECT_FALSE(graph_.node_at({2, 0}, Orientation::Horizontal).is_valid());
  // A channel cell with a trap beside it gains the perpendicular vertex.
  EXPECT_TRUE(graph_.node_at({1, 0}, Orientation::Horizontal).is_valid());
  // Empty cells have no vertices.
  EXPECT_FALSE(graph_.node_at({2, 2}, Orientation::Horizontal).is_valid());
  EXPECT_FALSE(graph_.node_at({2, 2}, Orientation::Vertical).is_valid());
}

TEST_F(RouteTest, TrapNodesExist) {
  for (const Trap& trap : fabric_.traps()) {
    const RouteNodeId node = graph_.trap_node(trap.id);
    ASSERT_TRUE(node.is_valid());
    EXPECT_TRUE(graph_.node(node).is_trap);
    EXPECT_EQ(graph_.node(node).trap, trap.id);
    EXPECT_FALSE(graph_.edges(node).empty());
  }
}

TEST_F(RouteTest, TurnEdgesLinkOrientations) {
  const RouteNodeId h = graph_.node_at({0, 0}, Orientation::Horizontal);
  const RouteNodeId v = graph_.node_at({0, 0}, Orientation::Vertical);
  bool found = false;
  for (const RouteEdge& edge : graph_.edges(h)) {
    if (edge.to == v) {
      EXPECT_TRUE(edge.is_turn);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RouteTest, AdjacentTrapToTrapDelay) {
  // (1,1) -> (1,3): out the north port, turn, 2 cells along the top channel,
  // turn, in through the north port: 4 moves + 2 turns = 4 + 20 = 24 us.
  Router router(graph_, params_);
  const auto path = router.route_trap_to_trap(trap_at(1, 1), trap_at(1, 3),
                                              congestion_, arena_);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->total_delay(), 24);
  EXPECT_EQ(path->move_count(), 4);
  EXPECT_EQ(path->turn_count(), 2);
}

TEST_F(RouteTest, SameTrapIsEmptyPath) {
  Router router(graph_, params_);
  const auto path = router.route_trap_to_trap(trap_at(1, 1), trap_at(1, 1),
                                              congestion_, arena_);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->empty());
  EXPECT_EQ(path->total_delay(), 0);
}

TEST_F(RouteTest, PathStepsAreContinuous) {
  Router router(graph_, params_);
  const auto path = router.route_trap_to_trap(trap_at(1, 1), trap_at(3, 3),
                                              congestion_, arena_);
  ASSERT_TRUE(path.has_value());
  Position position = fabric_.trap(trap_at(1, 1)).position;
  for (const PathStep& step : path->steps) {
    EXPECT_EQ(step.from, position);
    if (step.kind == StepKind::Move) {
      EXPECT_TRUE(are_adjacent(step.from, step.to));
      position = step.to;
    } else {
      EXPECT_EQ(step.from, step.to);
    }
  }
  EXPECT_EQ(position, fabric_.trap(trap_at(3, 3)).position);
}

TEST_F(RouteTest, ResourceUsesCoverTheRoute) {
  Router router(graph_, params_);
  const auto path = router.route_trap_to_trap(trap_at(1, 1), trap_at(1, 3),
                                              congestion_, arena_);
  ASSERT_TRUE(path.has_value());
  // The whole route lives in the single top channel segment.
  ASSERT_EQ(path->resource_uses.size(), 1u);
  const ResourceUse& use = path->resource_uses[0];
  EXPECT_EQ(use.resource.kind, ResourceRef::Kind::Segment);
  EXPECT_EQ(use.resource.index, fabric_.segment_at({0, 2}).value());
  EXPECT_EQ(use.enter_offset, 0);
  EXPECT_EQ(use.exit_offset, path->total_delay());
}

TEST_F(RouteTest, CongestionWeightsSteerAroundLoadedChannels) {
  Router router(graph_, params_);
  TechnologyParams strict = params_;
  strict.channel_capacity = 1;
  Router strict_router(graph_, strict);

  // Fill the top channel: the direct 24 us route is blocked under capacity 1
  // and the router detours via the left column, bottom row and right column.
  congestion_.acquire(ResourceRef::segment(fabric_.segment_at({0, 2})));
  const auto detour = strict_router.route_trap_to_trap(
      trap_at(1, 1), trap_at(1, 3), congestion_, arena_);
  ASSERT_TRUE(detour.has_value());
  EXPECT_EQ(detour->total_delay(), 52);  // 12 moves + 4 turns
  EXPECT_EQ(detour->move_count(), 12);
  EXPECT_EQ(detour->turn_count(), 4);

  // With capacity 2 the loaded channel is pricier but still usable.
  const auto direct = router.route_trap_to_trap(trap_at(1, 1), trap_at(1, 3),
                                                congestion_, arena_);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->total_delay(), 24);
}

TEST_F(RouteTest, FullyBlockedRouteReturnsNullopt) {
  TechnologyParams strict = params_;
  strict.channel_capacity = 1;
  strict.junction_capacity = 1;
  Router router(graph_, strict);
  // Block the top channel and both bottom junctions: no route remains.
  congestion_.acquire(ResourceRef::segment(fabric_.segment_at({0, 2})));
  congestion_.acquire(ResourceRef::junction(fabric_.junction_at({4, 0})));
  congestion_.acquire(ResourceRef::junction(fabric_.junction_at({4, 4})));
  const auto path = router.route_trap_to_trap(trap_at(1, 1), trap_at(1, 3),
                                              congestion_, arena_);
  EXPECT_FALSE(path.has_value());
}

TEST_F(RouteTest, EnclosedTargetFailsWithoutSearching) {
  TechnologyParams strict = params_;
  strict.channel_capacity = 1;
  Router router(graph_, strict);
  // (1,3)'s ports are on the top channel and the right column: fill both.
  const ResourceRef top = ResourceRef::segment(fabric_.segment_at({0, 2}));
  const ResourceRef right = ResourceRef::segment(fabric_.segment_at({2, 4}));
  congestion_.acquire(top);
  congestion_.acquire(right);

  const std::uint64_t settles = arena_.settle_count();
  EXPECT_FALSE(router
                   .route_trap_to_trap(trap_at(3, 1), trap_at(1, 3),
                                       congestion_, arena_)
                   .has_value());
  EXPECT_EQ(arena_.settle_count(), settles);

  // The same question asked without the shortcut floods what it can reach.
  EXPECT_FALSE(router
                   .shortest_node_path(graph_.trap_node(trap_at(3, 1)),
                                       graph_.trap_node(trap_at(1, 3)),
                                       congestion_, arena_, trap_at(3, 1))
                   .has_value());
  EXPECT_GT(arena_.settle_count(), settles);

  // Freeing one port makes the target routable again: up the right column.
  congestion_.release(right);
  const auto path = router.route_trap_to_trap(trap_at(3, 1), trap_at(1, 3),
                                              congestion_, arena_);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->resource_uses.back().resource, right);
}

void expect_same_path(const RoutedPath& actual, const RoutedPath& expected) {
  EXPECT_EQ(actual.nodes, expected.nodes);
  ASSERT_EQ(actual.steps.size(), expected.steps.size());
  for (std::size_t i = 0; i < expected.steps.size(); ++i) {
    EXPECT_EQ(actual.steps[i].kind, expected.steps[i].kind) << "step " << i;
    EXPECT_EQ(actual.steps[i].from, expected.steps[i].from) << "step " << i;
    EXPECT_EQ(actual.steps[i].to, expected.steps[i].to) << "step " << i;
    EXPECT_EQ(actual.steps[i].duration, expected.steps[i].duration)
        << "step " << i;
  }
  ASSERT_EQ(actual.resource_uses.size(), expected.resource_uses.size());
  for (std::size_t i = 0; i < expected.resource_uses.size(); ++i) {
    const ResourceUse& a = actual.resource_uses[i];
    const ResourceUse& b = expected.resource_uses[i];
    EXPECT_EQ(a.resource, b.resource) << "use " << i;
    EXPECT_EQ(a.enter_offset, b.enter_offset) << "use " << i;
    EXPECT_EQ(a.exit_offset, b.exit_offset) << "use " << i;
  }
}

/// Seeded random loads in [0, capacity] on every resource, then random trap
/// pairs: route_trap_to_trap must agree with shortest_node_path, which
/// keeps no shortcut, on whether a route exists, and its path must equal
/// lower_path of that node sequence in every field. Every query writes into
/// one RoutedPath that still holds the previous query's path.
void expect_router_matches_reference(const Fabric& fabric, std::uint64_t seed,
                                     int trials, int pairs_per_trial) {
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const Router router(graph, params);
  SearchArena<Duration> arena;
  RoutedPath reused;
  Rng rng(seed);
  int enclosed = 0;
  int blocked = 0;
  int routed = 0;
  for (int trial = 0; trial < trials; ++trial) {
    CongestionState congestion(fabric.segment_count(),
                               fabric.junction_count());
    const auto load = [&](ResourceRef resource, int capacity) {
      for (int n = rng.uniform_int(0, capacity); n > 0; --n) {
        congestion.acquire(resource);
      }
    };
    for (std::size_t s = 0; s < fabric.segment_count(); ++s) {
      load(ResourceRef::segment(SegmentId::from_index(s)),
           params.channel_capacity);
    }
    for (std::size_t j = 0; j < fabric.junction_count(); ++j) {
      load(ResourceRef::junction(JunctionId::from_index(j)),
           params.junction_capacity);
    }
    for (int p = 0; p < pairs_per_trial; ++p) {
      const auto random_trap = [&] {
        return TrapId::from_index(rng.uniform_index(fabric.trap_count()));
      };
      const TrapId from = random_trap();
      const TrapId to = random_trap();
      const bool found =
          router.route_trap_to_trap(from, to, congestion, arena, reused);
      const auto reference =
          router.shortest_node_path(graph.trap_node(from), graph.trap_node(to),
                                    congestion, arena, from);
      ASSERT_EQ(found, reference.has_value())
          << "trap " << from.value() << " -> " << to.value();
      if (found) {
        expect_same_path(reused, lower_path(graph, reference->nodes, params));
        ++routed;
        continue;
      }
      EXPECT_TRUE(reused.nodes.empty() && reused.steps.empty() &&
                  reused.resource_uses.empty());
      ++blocked;
      bool all_ports_full = true;
      for (const TrapPort& port : fabric.trap(to).ports) {
        const SegmentId segment = fabric.segment_at(port.channel_cell);
        all_ports_full = all_ports_full &&
                         congestion.segment_load(segment) >=
                             params.channel_capacity;
      }
      if (all_ports_full) ++enclosed;
    }
  }
  // The draw must exercise all three outcomes, or the test proves nothing.
  EXPECT_GT(routed, 0);
  EXPECT_GT(enclosed, 0);
  EXPECT_GT(blocked, enclosed);
}

TEST(RouterShortcut, AgreesWithTheFullSearchOnTheTileFabric) {
  expect_router_matches_reference(make_quale_fabric({2, 2, 4}), 7, 200, 8);
}

TEST(RouterShortcut, AgreesWithTheFullSearchOnThePaperFabric) {
  expect_router_matches_reference(make_paper_fabric(), 11, 40, 25);
}

TEST_F(RouteTest, TurnUnawareSelectionIgnoresTurnCosts) {
  Router aware(graph_, params_, RouterOptions{true});
  Router naive(graph_, params_, RouterOptions{false});

  Duration naive_cost = 0;
  const auto aware_path = aware.route_trap_to_trap(
      trap_at(1, 1), trap_at(3, 3), congestion_, arena_);
  const auto naive_path = naive.route_trap_to_trap(
      trap_at(1, 1), trap_at(3, 3), congestion_, arena_, &naive_cost);
  ASSERT_TRUE(aware_path.has_value());
  ASSERT_TRUE(naive_path.has_value());
  // The turn-aware router minimises physical delay, so it can only be better.
  EXPECT_LE(aware_path->total_delay(), naive_path->total_delay());
  // The naive selection cost counts no turn delay at all.
  EXPECT_EQ(naive_cost,
            static_cast<Duration>(naive_path->move_count()) * params_.t_move);
}

TEST_F(RouteTest, DeterministicAcrossCalls) {
  Router router(graph_, params_);
  const auto a = router.route_trap_to_trap(trap_at(1, 1), trap_at(3, 3),
                                           congestion_, arena_);
  const auto b = router.route_trap_to_trap(trap_at(1, 1), trap_at(3, 3),
                                           congestion_, arena_);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->nodes, b->nodes);
}

TEST(CongestionState, AcquireReleaseRoundTrip) {
  CongestionState state(3, 2);
  const auto seg = ResourceRef::segment(SegmentId(1));
  const auto jct = ResourceRef::junction(JunctionId(0));
  EXPECT_EQ(state.load(seg), 0);
  state.acquire(seg);
  state.acquire(seg);
  state.acquire(jct);
  EXPECT_EQ(state.segment_load(SegmentId(1)), 2);
  EXPECT_EQ(state.junction_load(JunctionId(0)), 1);
  EXPECT_EQ(state.total_load(), 3);
  state.release(seg);
  EXPECT_EQ(state.load(seg), 1);
  state.release(seg);
  EXPECT_THROW(state.release(seg), SimulationError);
}

TEST(RoutingGraphLarge, PaperFabricIsFullyConnected) {
  const Fabric fabric = make_paper_fabric();
  const RoutingGraph graph(fabric);
  CongestionState congestion(fabric.segment_count(), fabric.junction_count());
  Router router(graph, TechnologyParams{});
  SearchArena<Duration> arena;
  // Far corners of the fabric are mutually reachable.
  const TrapId first = fabric.traps().front().id;
  const TrapId last = fabric.traps().back().id;
  const auto path = router.route_trap_to_trap(first, last, congestion, arena);
  ASSERT_TRUE(path.has_value());
  EXPECT_GT(path->move_count(), 50);
  // Physical delay is bounded below by the Manhattan distance.
  const int distance = manhattan_distance(fabric.trap(first).position,
                                          fabric.trap(last).position);
  EXPECT_GE(path->total_delay(), distance);
}

}  // namespace
}  // namespace qspr
