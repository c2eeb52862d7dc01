// Tests for the PathFinder negotiated-congestion router (QUALE's routing
// substrate, paper §I ref. [3]).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "fabric/quale_fabric.hpp"
#include "fabric/text_io.hpp"
#include "route/pathfinder.hpp"

namespace qspr {
namespace {

class PathFinderTest : public ::testing::Test {
 protected:
  PathFinderTest() : fabric_(make_quale_fabric({3, 3, 4})), graph_(fabric_) {}

  TrapId trap_at(int row, int col) const {
    const TrapId id = fabric_.trap_at({row, col});
    EXPECT_TRUE(id.is_valid());
    return id;
  }

  Fabric fabric_;
  RoutingGraph graph_;
  TechnologyParams params_;
};

TEST_F(PathFinderTest, SingleNetRoutesDirectly) {
  const PathFinderResult result = route_nets_negotiated(
      graph_, params_, {{trap_at(1, 1), trap_at(1, 3)}});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations_used, 1);
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0].total_delay(), 24);  // same as the greedy router
}

TEST_F(PathFinderTest, EmptyAndTrivialNets) {
  const PathFinderResult empty = route_nets_negotiated(graph_, params_, {});
  EXPECT_TRUE(empty.converged);
  EXPECT_EQ(empty.total_delay, 0);

  const PathFinderResult self = route_nets_negotiated(
      graph_, params_, {{trap_at(1, 1), trap_at(1, 1)}});
  EXPECT_TRUE(self.converged);
  EXPECT_TRUE(self.paths[0].empty());
}

TEST_F(PathFinderTest, NegotiatesContendedChannels) {
  // Three nets all crossing the fabric left-to-right along the same row of
  // traps: capacity 1 forces them onto distinct corridors.
  TechnologyParams strict = params_;
  strict.channel_capacity = 1;
  strict.junction_capacity = 1;
  const std::vector<NetRequest> nets = {
      {trap_at(1, 1), trap_at(1, 7)},
      {trap_at(3, 1), trap_at(3, 7)},
      {trap_at(5, 1), trap_at(5, 7)},
  };
  const PathFinderResult result =
      route_nets_negotiated(graph_, strict, nets);
  EXPECT_TRUE(result.converged);

  // No channel segment is used by more than one net.
  std::map<std::int32_t, int> segment_users;
  for (const RoutedPath& path : result.paths) {
    std::set<std::int32_t> mine;
    for (const ResourceUse& use : path.resource_uses) {
      if (use.resource.kind == ResourceRef::Kind::Segment) {
        mine.insert(use.resource.index);
      }
    }
    for (const std::int32_t segment : mine) ++segment_users[segment];
  }
  for (const auto& [segment, users] : segment_users) {
    EXPECT_LE(users, 1) << "segment " << segment;
  }
}

TEST_F(PathFinderTest, ConvergedSolutionsRespectCapacityTwo) {
  // Six simultaneous crossing nets with the paper's capacity 2, on a fabric
  // with enough corridors that a legal solution exists.
  const Fabric fabric = make_quale_fabric({4, 4, 4});
  const RoutingGraph graph(fabric);
  std::vector<NetRequest> nets;
  for (int i = 0; i < 3; ++i) {
    nets.push_back(
        {fabric.trap_at({1, 1 + 4 * i}), fabric.trap_at({11, 11 - 4 * i})});
    nets.push_back(
        {fabric.trap_at({11, 1 + 4 * i}), fabric.trap_at({1, 11 - 4 * i})});
  }
  const PathFinderResult result = route_nets_negotiated(graph, params_, nets);
  EXPECT_TRUE(result.converged);
  std::map<std::int32_t, int> segment_users;
  for (const RoutedPath& path : result.paths) {
    std::set<std::int32_t> mine;
    for (const ResourceUse& use : path.resource_uses) {
      if (use.resource.kind == ResourceRef::Kind::Segment) {
        mine.insert(use.resource.index);
      }
    }
    for (const std::int32_t segment : mine) ++segment_users[segment];
  }
  for (const auto& [segment, users] : segment_users) {
    EXPECT_LE(users, params_.channel_capacity) << "segment " << segment;
  }
}

TEST_F(PathFinderTest, ReportsResidualOveruseWhenInfeasible) {
  // The same crossing pattern on the tiny 3x3-junction fabric saturates the
  // corridors (~100% of total capacity): PathFinder must terminate and
  // report the residual over-use instead of spinning.
  std::vector<NetRequest> nets;
  for (int i = 0; i < 3; ++i) {
    nets.push_back({trap_at(1, 1 + 2 * i), trap_at(7, 7 - 2 * i)});
    nets.push_back({trap_at(7, 1 + 2 * i), trap_at(1, 7 - 2 * i)});
  }
  PathFinderOptions options;
  options.max_iterations = 15;
  const PathFinderResult result =
      route_nets_negotiated(graph_, params_, nets, options);
  // The adaptive schedule may stop before the cap (stagnation / structural
  // floor) — the contract is an honest residual report, not cap burning.
  EXPECT_LE(result.iterations_used, 15);
  if (!result.converged) {
    EXPECT_GT(result.overused_resources, 0);
    EXPECT_GT(result.max_overuse, 0);
    EXPECT_GE(result.total_excess, result.min_feasible_excess);
  }
  EXPECT_GT(result.total_delay, 0);

  // The classic schedule burns the full cap on this saturated instance.
  PathFinderOptions classic = options;
  classic.adaptive_schedule = false;
  const PathFinderResult capped =
      route_nets_negotiated(graph_, params_, nets, classic);
  EXPECT_EQ(capped.iterations_used, 15);
}

TEST_F(PathFinderTest, ReportsSearchAndOveruseCounters) {
  const PathFinderResult result = route_nets_negotiated(
      graph_, params_, {{trap_at(1, 1), trap_at(1, 3)}});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.max_overuse, 0);
  EXPECT_EQ(result.searches_performed, 1);

  PathFinderOptions full;
  full.partial_ripup = false;
  const std::vector<NetRequest> nets = {
      {trap_at(1, 1), trap_at(1, 7)},
      {trap_at(1, 1), trap_at(1, 7)},
      {trap_at(1, 1), trap_at(1, 7)},
  };
  const PathFinderResult swept =
      route_nets_negotiated(graph_, params_, nets, full);
  // Full rip-up re-routes every net every iteration by definition.
  EXPECT_EQ(swept.searches_performed,
            static_cast<long long>(nets.size()) * swept.iterations_used);
}

TEST(PathFinderTest2, StructuralFloorSumsDisjointOverdemandedTraps) {
  // Two far-apart traps each carry endpoint demand 6 against port capacity
  // 4: their port sets are disjoint, so the provable excess floor is the
  // sum (2 + 2), not the single-trap maximum — and the residual excess can
  // never undercut it.
  const Fabric fabric = make_quale_fabric();  // the 45x85 paper fabric
  const RoutingGraph graph(fabric);
  const auto& traps = fabric.traps();
  std::vector<NetRequest> nets;
  const TrapId a = traps.front().id;
  const TrapId b = traps.back().id;
  for (int i = 0; i < 6; ++i) {
    nets.push_back({a, traps[10 + static_cast<std::size_t>(i)].id});
    nets.push_back({b, traps[traps.size() - 10 - static_cast<std::size_t>(i)].id});
  }
  const PathFinderResult result =
      route_nets_negotiated(graph, TechnologyParams{}, nets);
  EXPECT_EQ(result.min_feasible_excess, 4);
  EXPECT_FALSE(result.converged);
  EXPECT_GE(result.total_excess, result.min_feasible_excess);
}

TEST(CongestionLedgerTest, TracksOveruseDeltaSetIncrementally) {
  CongestionLedger ledger(/*segment_count=*/4, /*junction_count=*/2,
                          /*segment_capacity=*/2, /*junction_capacity=*/1);
  ledger.begin_iteration(/*present_factor=*/0.6);
  EXPECT_EQ(ledger.size(), 6u);
  EXPECT_EQ(ledger.index_of(ResourceRef::segment(SegmentId(3))), 3u);
  EXPECT_EQ(ledger.index_of(ResourceRef::junction(JunctionId(1))), 5u);

  ledger.acquire(0);
  ledger.acquire(0);
  EXPECT_FALSE(ledger.is_overused(0));  // at capacity, not over
  ledger.acquire(0);
  EXPECT_TRUE(ledger.is_overused(0));
  ledger.acquire(4);
  ledger.acquire(4);  // junction capacity 1 -> over
  EXPECT_TRUE(ledger.is_overused(4));
  EXPECT_EQ(ledger.overused().size(), 2u);

  const auto summary = ledger.charge_history(0.25);
  EXPECT_EQ(summary.overused, 2);
  EXPECT_EQ(summary.max_overuse, 1);
  EXPECT_DOUBLE_EQ(ledger.history(0), 0.25);
  EXPECT_DOUBLE_EQ(ledger.history(1), 0.0);

  ledger.release(0);
  EXPECT_FALSE(ledger.is_overused(0));
  EXPECT_EQ(ledger.overused().size(), 1u);
  EXPECT_EQ(ledger.overused().front(), 4u);
}

TEST(CongestionLedgerTest, EnteringPenaltyPricesPresentOveruseAndHistory) {
  CongestionLedger ledger(/*segment_count=*/2, /*junction_count=*/0,
                          /*segment_capacity=*/1, /*junction_capacity=*/1);
  ledger.begin_iteration(0.6);
  EXPECT_DOUBLE_EQ(ledger.entering_penalty(0), 1.0);  // idle, no history

  ledger.acquire(0);
  ledger.acquire(0);
  ledger.acquire(1);
  ledger.charge_history(0.5);  // only segment 0 is over capacity
  ledger.begin_iteration(0.9);
  EXPECT_DOUBLE_EQ(ledger.present_factor(), 0.9);
  // Segment 1 is at capacity: entering costs (1 + 1*0.9) * (1 + 0) = 1.9.
  // Segment 0 is over: (1 + 2*0.9) * (1 + 0.5) = 4.2.
  EXPECT_DOUBLE_EQ(ledger.entering_penalty(1), 1.9);
  EXPECT_DOUBLE_EQ(ledger.entering_penalty(0), 4.2);

  // A release re-prices the resource at once; history stays.
  ledger.release(1);
  EXPECT_DOUBLE_EQ(ledger.entering_penalty(1), 1.0);
  ledger.release(0);
  ledger.release(0);
  EXPECT_DOUBLE_EQ(ledger.entering_penalty(0), 1.5);
}

TEST_F(PathFinderTest, TurnUnawareModeStillConverges) {
  PathFinderOptions options;
  options.turn_aware = false;
  const PathFinderResult result = route_nets_negotiated(
      graph_, params_,
      {{trap_at(1, 1), trap_at(7, 7)}, {trap_at(7, 1), trap_at(1, 7)}},
      options);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.total_delay, 0);
}

TEST(PathFinderDisconnected, ThrowsRoutingError) {
  const Fabric fabric = parse_fabric(
      "J---J.J---J\n"
      "|T..|.|..T|\n"
      "J---J.J---J\n");
  const RoutingGraph graph(fabric);
  EXPECT_THROW(
      route_nets_negotiated(graph, TechnologyParams{},
                            {{fabric.traps()[0].id, fabric.traps()[1].id}}),
      RoutingError);
}

TEST(PathFinderOptionsValidation, RejectsZeroIterations) {
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  PathFinderOptions options;
  options.max_iterations = 0;
  EXPECT_THROW(route_nets_negotiated(graph, TechnologyParams{},
                                     {{fabric.traps()[0].id,
                                       fabric.traps()[1].id}},
                                     options),
               Error);
}

}  // namespace
}  // namespace qspr
