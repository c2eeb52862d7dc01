// Frontier-queue equivalence: an integer-cost SearchArena (monotone bucket
// queue) must pop the exact strict (f, g, node) order that the reference, a
// SearchArena<double> (binary heap), pops for the same pushes; the keys are
// small integers, exact in double. Also covers the bucket queue's monotone
// discipline, the Router's costs against an independent search, the
// generation-wrap reuse path, and StampedSet.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "fabric/quale_fabric.hpp"
#include "route/pathfinder.hpp"
#include "route/router.hpp"
#include "route/search_arena.hpp"

namespace qspr {
namespace {

using Entry = SearchArena<Duration>::HeapEntry;

/// Pops one entry as integer keys (exact for the double reference here).
template <typename Cost>
Entry pop(SearchArena<Cost>& arena) {
  const auto e = arena.heap_pop();
  return {static_cast<Duration>(e.f), static_cast<Duration>(e.g), e.node};
}

/// Drains `arena`'s frontier into a vector.
template <typename Cost>
std::vector<Entry> drain(SearchArena<Cost>& arena) {
  std::vector<Entry> popped;
  while (!arena.heap_empty()) popped.push_back(pop(arena));
  return popped;
}

void expect_same_entries(const std::vector<Entry>& a,
                         const std::vector<Entry>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].f, b[i].f) << label << " pop " << i;
    EXPECT_EQ(a[i].g, b[i].g) << label << " pop " << i;
    EXPECT_EQ(a[i].node, b[i].node) << label << " pop " << i;
  }
}

TEST(FrontierQueueTest, BucketQueuePopsBinaryHeapOrderOnAdversarialTies) {
  // Heavy equal-f and equal-(f, g) collisions: the whole batch shares three
  // f values and repeats g values, so only the (f, g, node) tie-break can
  // order it. Entries are pairwise distinct, exactly like real pushes
  // (strict dist improvement), so the order is a strict total order.
  std::vector<Entry> batch;
  int node = 0;
  for (const Duration f : {40, 20, 30}) {
    for (const Duration g : {7, 3, 5, 3 + 14, 7 + 14}) {
      batch.push_back({f, g, RouteNodeId::from_index(node++)});
    }
  }
  // Same multiset in a different push order must not matter either.
  std::vector<Entry> reversed(batch.rbegin(), batch.rend());

  std::vector<std::vector<Entry>> popped;
  const auto push_then_drain = [&](auto arena) {
    for (const std::vector<Entry>& order : {batch, reversed}) {
      arena.begin(batch.size());
      for (const Entry& e : order) arena.heap_push(e.f, e.g, e.node);
      popped.push_back(drain(arena));
    }
  };
  push_then_drain(SearchArena<double>{});
  push_then_drain(SearchArena<Duration>{});
  for (std::size_t i = 0; i + 1 < popped.size(); ++i) {
    expect_same_entries(popped[i], popped[i + 1], "tie batch");
  }
  // And the shared order actually is the sorted strict (f, g, node) order.
  for (std::size_t i = 0; i + 1 < popped[0].size(); ++i) {
    EXPECT_TRUE(popped[0][i + 1] > popped[0][i]) << "pop " << i;
  }
}

/// One frontier operation of a scripted search: a push of (f, g) for a
/// fresh node, or a pop (f < 0).
struct ScriptStep {
  Duration f;
  Duration g;
};
constexpr ScriptStep kPop{-1, -1};

/// Replays `searches` on one arena (begin() before each script, the
/// frontier drained after it) and returns every popped entry in order.
template <typename Cost>
std::vector<Entry> replay(
    const std::vector<std::vector<ScriptStep>>& searches) {
  SearchArena<Cost> arena;
  std::vector<Entry> popped;
  for (const std::vector<ScriptStep>& script : searches) {
    arena.begin(64);
    int node = 0;
    for (const ScriptStep& step : script) {
      if (step.f < 0) {
        popped.push_back(pop(arena));
      } else {
        arena.heap_push(step.f, step.g, RouteNodeId::from_index(node++));
      }
    }
    for (const Entry& e : drain(arena)) popped.push_back(e);
  }
  return popped;
}

TEST(FrontierQueueTest, MonotoneInterleavedWorkloadMatchesBinaryHeap) {
  // Dijkstra-shaped interleaving: each pop may trigger pushes whose keys are
  // bounded below by the *popped* key (not by each other) — including pushes
  // after the frontier transiently drains mid-expansion, the case that
  // constrains the bucket queue's cursor discipline.
  const auto run = [](auto arena) {
    arena.begin(4096);
    std::uint64_t lcg = 12345;
    const auto next = [&lcg](std::uint64_t bound) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      return (lcg >> 33) % bound;
    };
    int node = 0;
    arena.heap_push(0, 0, RouteNodeId::from_index(node++));
    std::vector<Entry> sequence;
    while (!arena.heap_empty() && node < 4000) {
      const Entry top = pop(arena);
      sequence.push_back(top);
      // 0-3 children pushed immediately, each at f >= the *popped* f — the
      // Dijkstra discipline. With branching often 0 the frontier regularly
      // drains mid-run and refills from the last pop, the case that
      // constrains the bucket queue's cursor handling.
      std::uint64_t children = next(4);
      // Whenever the frontier fully drains, refill from the popped key —
      // the drain-refill case that pins the bucket cursor's floor to the
      // last *popped* key rather than to earlier sibling pushes.
      if (arena.heap_empty() && children == 0) children = 1;
      for (std::uint64_t c = 0; c < children; ++c) {
        const Duration f = top.f + static_cast<Duration>(next(12));
        const Duration g = f - static_cast<Duration>(next(5));
        arena.heap_push(f, g, RouteNodeId::from_index(node++));
      }
    }
    for (const Entry& e : drain(arena)) sequence.push_back(e);
    return sequence;
  };
  const std::vector<std::vector<Entry>> popped = {
      run(SearchArena<double>{}), run(SearchArena<Duration>{})};
  ASSERT_GT(popped[0].size(), 1000u) << "workload died early; reseed the LCG";
  expect_same_entries(popped[0], popped[1], "binary vs bucket");
  for (std::size_t i = 0; i + 1 < popped[0].size(); ++i) {
    EXPECT_LE(popped[0][i].f, popped[0][i + 1].f) << "monotone pop " << i;
  }

  // Scripted sequences aimed at where the bucket queue's cursor starts and
  // moves. Every push after a pop is at least the popped key.
  const std::vector<std::vector<std::vector<ScriptStep>>> scripts = {
      // The first pushed key is large, then a fresh search on the same
      // arena starts far below it.
      {{{900, 880}, kPop, {900, 890}, {903, 895}, kPop, {905, 900}},
       {{3, 0}, kPop, {4, 1}, {3, 2}}},
      // Several pushes in descending key order before the first pop; the
      // pops after it interleave with pushes at and above the popped key.
      {{{50, 0}, {40, 0}, {30, 0}, {20, 0}, {20, 5}, kPop, {20, 9}, {45, 2},
        kPop, kPop, {30, 7}, kPop}},
      // The frontier drains in the middle of an expansion: each pop empties
      // it, and the expansion then pushes siblings in descending order.
      {{{10, 0}, kPop, {14, 1}, {12, 2}, {11, 3}, kPop, kPop, kPop, {14, 4},
        {20, 6}, {16, 5}, kPop, kPop, {16, 7}, kPop, kPop}},
  };
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    const std::vector<Entry> reference = replay<double>(scripts[c]);
    const std::string label = "script " + std::to_string(c);
    expect_same_entries(reference, replay<Duration>(scripts[c]),
                        (label + " bucket").c_str());
  }
}

/// Checks the Router's turn-aware query between every pair of every
/// `stride`-th trap outward from the center, and the farthest trap, against
/// a one-net negotiation on the reference Dijkstra (binary heap, its own
/// loop): an idle ledger prices each cell at t_move x 1, like Eq. 2.
void expect_router_matches_reference(const Fabric& fabric,
                                     std::size_t stride) {
  const std::vector<TrapId> by_distance =
      fabric.traps_by_distance(fabric.center());
  std::vector<TrapId> traps = {by_distance.back()};
  for (std::size_t i = 0; i + 1 < by_distance.size(); i += stride) {
    traps.push_back(by_distance[i]);
  }
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const Router router(graph, params);
  const CongestionState idle(fabric.segment_count(), fabric.junction_count());
  PathFinderOptions reference_options;
  reference_options.engine = PathFinderEngine::ReferenceDijkstra;
  PathFinderScratch scratch;
  SearchArena<Duration> arena;
  for (const TrapId from : traps) {
    for (const TrapId to : traps) {
      if (from == to) continue;
      Duration selection_cost = -1;
      const auto path =
          router.route_trap_to_trap(from, to, idle, arena, &selection_cost);
      ASSERT_TRUE(path.has_value());
      const PathFinderResult reference = route_nets_negotiated(
          graph, params, {{from, to}}, reference_options, scratch);
      EXPECT_EQ(selection_cost, reference.total_delay)
          << from.index() << "->" << to.index();
      EXPECT_EQ(path->total_delay(), selection_cost);
    }
  }
}

TEST(FrontierQueueTest, RouterCostsMatchReferenceDijkstraOnIdleFabrics) {
  expect_router_matches_reference(make_quale_fabric({3, 3, 4}), 1);
  expect_router_matches_reference(make_paper_fabric(), 29);
}

TEST(FrontierQueueTest, GenerationWrapReuseStaysCorrect) {
  // Jump the generation counter to just below the 31-bit wrap, run a query,
  // wrap, and run it again: state stamped before the wipe must not leak into
  // the post-wrap search.
  const Fabric fabric = make_quale_fabric({2, 2, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const Router router(graph, params);
  CongestionState congestion(fabric.segment_count(), fabric.junction_count());
  const auto traps = fabric.traps_by_distance(fabric.center());
  ASSERT_GE(traps.size(), 2u);

  SearchArena<Duration> arena;
  Duration fresh_cost = 0;
  const auto fresh = router.route_trap_to_trap(
      traps.front(), traps.back(), congestion, arena, &fresh_cost);
  ASSERT_TRUE(fresh.has_value());

  arena.debug_set_generation((1u << 31) - 2);
  Duration near_wrap_cost = 0;
  const auto near_wrap = router.route_trap_to_trap(
      traps.front(), traps.back(), congestion, arena, &near_wrap_cost);
  ASSERT_TRUE(near_wrap.has_value());
  EXPECT_EQ(near_wrap->nodes, fresh->nodes);
  EXPECT_EQ(near_wrap_cost, fresh_cost);
  EXPECT_EQ(arena.debug_generation(), (1u << 31) - 1);

  // The next begin hits the limit, wipes the stamps, and restarts at 1.
  Duration wrapped_cost = 0;
  const auto wrapped = router.route_trap_to_trap(
      traps.front(), traps.back(), congestion, arena, &wrapped_cost);
  ASSERT_TRUE(wrapped.has_value());
  EXPECT_EQ(arena.debug_generation(), 1u);
  EXPECT_EQ(wrapped->nodes, fresh->nodes);
  EXPECT_EQ(wrapped_cost, fresh_cost);
}

TEST(FrontierQueueTest, StampedSetInsertReportsOnlyTheFirstPerReset) {
  StampedSet set;
  set.reset(8);
  EXPECT_TRUE(set.insert(3));
  EXPECT_FALSE(set.insert(3));
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(7));
  set.reset(8);  // a reset empties the set
  EXPECT_FALSE(set.contains(3));
  EXPECT_TRUE(set.insert(3));

  // Growing the universe after use leaves no earlier member behind, in the
  // old range or the new one.
  set.reset(64);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_FALSE(set.contains(i)) << i;
  EXPECT_TRUE(set.insert(3));
  EXPECT_TRUE(set.insert(63));
  EXPECT_FALSE(set.insert(63));
}

}  // namespace
}  // namespace qspr
