// Frontier-queue equivalence: the two SearchArena frontier kinds (binary
// heap, monotone bucket queue) must pop the exact same strict (f, g, node)
// order on every workload the searches can generate — which is what makes
// the frontier choice invisible in routing results. Also covers the bucket
// queue's monotone discipline, the generation-wrap reuse path, the test-only
// override, and the floating-point Bucket->Binary fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "fabric/quale_fabric.hpp"
#include "route/router.hpp"
#include "route/search_arena.hpp"

namespace qspr {
namespace {

using Entry = SearchArena<Duration>::HeapEntry;

constexpr FrontierKind kKinds[] = {FrontierKind::Binary, FrontierKind::Bucket};

/// Forces `kind` onto every arena's next begin() for the guard's lifetime.
struct ForcedFrontier {
  explicit ForcedFrontier(FrontierKind kind) { force_frontier_kind(kind); }
  ~ForcedFrontier() { clear_frontier_kind_override(); }
  ForcedFrontier(const ForcedFrontier&) = delete;
  ForcedFrontier& operator=(const ForcedFrontier&) = delete;
};

/// Drains `arena`'s forward frontier into a vector.
std::vector<Entry> drain(SearchArena<Duration>& arena) {
  std::vector<Entry> popped;
  while (!arena.heap_empty()) popped.push_back(arena.heap_pop());
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

TEST(FrontierQueueTest, BothKindsPopIdenticalOrderOnAdversarialTies) {
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
  for (const FrontierKind kind : kKinds) {
    for (const std::vector<Entry>& order : {batch, reversed}) {
      const ForcedFrontier forced(kind);
      SearchArena<Duration> arena;
      arena.begin(batch.size());
      for (const Entry& e : order) arena.heap_push(e.f, e.g, e.node);
      popped.push_back(drain(arena));
    }
  }
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

/// Replays `searches` on one arena of `kind` (begin() before each script,
/// the frontier drained after it) and returns every popped entry in order.
std::vector<Entry> replay(
    FrontierKind kind, const std::vector<std::vector<ScriptStep>>& searches) {
  const ForcedFrontier forced(kind);
  SearchArena<Duration> arena;
  std::vector<Entry> popped;
  for (const std::vector<ScriptStep>& script : searches) {
    arena.begin(64);
    int node = 0;
    for (const ScriptStep& step : script) {
      if (step.f < 0) {
        popped.push_back(arena.heap_pop());
      } else {
        arena.heap_push(step.f, step.g, RouteNodeId::from_index(node++));
      }
    }
    for (const Entry& e : drain(arena)) popped.push_back(e);
  }
  return popped;
}

TEST(FrontierQueueTest, MonotoneInterleavedWorkloadMatchesAcrossKinds) {
  // Dijkstra-shaped interleaving: each pop may trigger pushes whose keys are
  // bounded below by the *popped* key (not by each other) — including pushes
  // after the frontier transiently drains mid-expansion, the case that
  // constrains the bucket queue's cursor discipline.
  std::vector<std::vector<Entry>> popped;
  for (const FrontierKind kind : kKinds) {
    const ForcedFrontier forced(kind);
    SearchArena<Duration> arena;
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
      const Entry top = arena.heap_pop();
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
    while (!arena.heap_empty()) sequence.push_back(arena.heap_pop());
    popped.push_back(std::move(sequence));
  }
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
    const std::vector<Entry> reference =
        replay(FrontierKind::Binary, scripts[c]);
    const std::string label = "script " + std::to_string(c);
    expect_same_entries(reference, replay(FrontierKind::Bucket, scripts[c]),
                        (label + " bucket").c_str());
  }
}

TEST(FrontierQueueTest, RouterPathsIdenticalAcrossKinds) {
  // End-to-end: the integer-cost Router must return byte-identical paths and
  // costs under every frontier kind (the fuzz differential asserts the same
  // through the whole mapper; this is the focused single-query version).
  const Fabric fabric = make_quale_fabric({3, 3, 4});
  const RoutingGraph graph(fabric);
  const TechnologyParams params;
  const Router router(graph, params);
  CongestionState congestion(fabric.segment_count(), fabric.junction_count());
  const auto traps = fabric.traps_by_distance(fabric.center());

  for (std::size_t i = 0; i + 1 < std::min<std::size_t>(traps.size(), 16);
       ++i) {
    std::vector<RoutedPath> paths;
    std::vector<Duration> costs;
    for (const FrontierKind kind : kKinds) {
      const ForcedFrontier forced(kind);
      SearchArena<Duration> arena;
      Duration cost = 0;
      const auto path = router.route_trap_to_trap(
          traps[i], traps[i + 1], congestion, arena, &cost);
      ASSERT_TRUE(path.has_value()) << to_string(kind);
      paths.push_back(*path);
      costs.push_back(cost);
    }
    EXPECT_EQ(paths[0].nodes, paths[1].nodes) << "bucket, query " << i;
    EXPECT_EQ(costs[0], costs[1]) << "query " << i;
  }
}

TEST(FrontierQueueTest, ForcedKindOverrideAppliesAtNextBegin) {
  SearchArena<Duration> integer_arena;
  SearchArena<double> double_arena;
  integer_arena.begin(8);
  double_arena.begin(8);
  EXPECT_EQ(integer_arena.frontier(), FrontierKind::Bucket);
  EXPECT_EQ(double_arena.frontier(), FrontierKind::Binary);

  force_frontier_kind(FrontierKind::Binary);
  EXPECT_EQ(integer_arena.frontier(), FrontierKind::Bucket);  // not yet
  integer_arena.begin(8);
  EXPECT_EQ(integer_arena.frontier(), FrontierKind::Binary);

  // Clearing restores bucket for integer costs and binary for doubles, again
  // from the next begin().
  clear_frontier_kind_override();
  EXPECT_EQ(integer_arena.frontier(), FrontierKind::Binary);  // not yet
  integer_arena.begin(8);
  double_arena.begin(8);
  EXPECT_EQ(integer_arena.frontier(), FrontierKind::Bucket);
  EXPECT_EQ(double_arena.frontier(), FrontierKind::Binary);
}

TEST(FrontierQueueTest, ForcedBucketOnFloatingPointArenaResolvesToBinary) {
  // Bucket indexing needs integer keys; a double arena falls back.
  const ForcedFrontier forced(FrontierKind::Bucket);
  SearchArena<double> arena;
  arena.begin(8);
  EXPECT_EQ(arena.frontier(), FrontierKind::Binary);
  arena.heap_push(1.5, 1.5, RouteNodeId::from_index(0));
  arena.heap_push(0.5, 0.5, RouteNodeId::from_index(1));
  EXPECT_EQ(arena.heap_pop().node, RouteNodeId::from_index(1));
  SearchArena<Duration> integer_arena;
  integer_arena.begin(8);
  EXPECT_EQ(integer_arena.frontier(), FrontierKind::Bucket);
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

}  // namespace
}  // namespace qspr
