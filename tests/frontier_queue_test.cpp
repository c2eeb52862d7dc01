// Frontier order: SearchArena's binary heap must pop the strict
// (f, g, node) order, for integer and floating-point costs alike. Each case
// drives an arena and an independent reference in lockstep — the pushed
// entries kept sorted by (f, g, node) in a std::set — and checks every pop,
// and the heap_peek_node() that names it beforehand, against the
// reference's minimum. The scripts cover adversarial ties, a Dijkstra-shaped
// interleaving, small edge cases, and a seeded script whose pushes land below
// the last pop, as weighted A* produces. Also covers the Router's costs
// against an independent search, the generation-wrap reuse path, and
// StampedSet.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "common/time.hpp"
#include "fabric/quale_fabric.hpp"
#include "route/pathfinder.hpp"
#include "route/router.hpp"
#include "route/search_arena.hpp"

namespace qspr {
namespace {

/// Deterministic LCG, so scripts are identical on every platform.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next(std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  }
};

/// An arena and the sorted reference, driven in lockstep. Every push goes
/// to both under a fresh node id; every pop checks the arena's entry, and
/// the node heap_peek_node() named before it, against the reference.
template <typename Cost>
class Lockstep {
 public:
  using Entry = std::tuple<Cost, Cost, std::uint32_t>;  // (f, g, node)

  void begin() {
    arena_.begin(kNodes);
    reference_.clear();
    next_node_ = 0;
  }

  void push(Cost f, Cost g) {
    ASSERT_LT(next_node_, kNodes) << "script outgrew the arena";
    arena_.heap_push(f, g, RouteNodeId::from_index(next_node_));
    reference_.insert({f, g, next_node_});
    ++next_node_;
  }

  [[nodiscard]] bool empty() const { return reference_.empty(); }
  [[nodiscard]] std::uint32_t pushed() const { return next_node_; }

  /// Pops one entry into `popped` (the reference's minimum).
  void pop(Entry& popped) {
    ASSERT_EQ(arena_.heap_empty(), reference_.empty());
    ASSERT_FALSE(reference_.empty());
    popped = *reference_.begin();
    reference_.erase(reference_.begin());
    const auto [f, g, node] = popped;
    ASSERT_EQ(arena_.heap_peek_node(), RouteNodeId::from_index(node));
    const auto entry = arena_.heap_pop();
    ASSERT_EQ(entry.f, f);
    ASSERT_EQ(entry.g, g);
    ASSERT_EQ(entry.node, RouteNodeId::from_index(node));
  }

  /// Pops until both sides are empty.
  void drain() {
    Entry popped;
    while (!reference_.empty()) ASSERT_NO_FATAL_FAILURE(pop(popped));
    ASSERT_TRUE(arena_.heap_empty());
    ASSERT_EQ(arena_.heap_peek_node(), RouteNodeId::invalid());
  }

 private:
  static constexpr std::uint32_t kNodes = 8192;
  SearchArena<Cost> arena_;
  std::set<Entry> reference_;
  std::uint32_t next_node_ = 0;
};

template <typename Cost>
void pop_adversarial_ties() {
  // Heavy equal-f and equal-(f, g) collisions: the whole batch shares three
  // f values and repeats g values, so only the (f, g, node) tie-break can
  // order it. Entries are pairwise distinct, exactly like real pushes
  // (strict dist improvement), so the order is a strict total order.
  std::vector<std::tuple<Cost, Cost>> batch;
  for (const Cost f : {40, 20, 30}) {
    for (const Cost g : {7, 3, 5, 3 + 14, 7 + 14}) batch.emplace_back(f, g);
  }
  // Same entries in a different push order must not matter either.
  const std::vector<std::tuple<Cost, Cost>> reversed(batch.rbegin(),
                                                     batch.rend());
  Lockstep<Cost> step;
  for (const auto& order : {batch, reversed}) {
    step.begin();
    for (const auto& [f, g] : order) ASSERT_NO_FATAL_FAILURE(step.push(f, g));
    ASSERT_NO_FATAL_FAILURE(step.drain());
  }
}

TEST(FrontierQueueTest, PopsSortedOrderOnAdversarialTies) {
  pop_adversarial_ties<Duration>();
  pop_adversarial_ties<double>();
}

template <typename Cost>
void pop_dijkstra_shaped_workload() {
  // Dijkstra-shaped interleaving: each pop may trigger pushes whose keys are
  // bounded below by the *popped* key (not by each other), including pushes
  // after the frontier transiently drains mid-expansion.
  Lockstep<Cost> step;
  step.begin();
  Lcg lcg{12345};
  ASSERT_NO_FATAL_FAILURE(step.push(0, 0));
  Cost last_f = 0;
  std::uint32_t pops = 0;
  while (!step.empty() && step.pushed() < 4000) {
    typename Lockstep<Cost>::Entry top;
    ASSERT_NO_FATAL_FAILURE(step.pop(top));
    ++pops;
    const Cost top_f = std::get<0>(top);
    EXPECT_LE(last_f, top_f) << "monotone pop " << pops;
    last_f = top_f;
    // 0-3 children, each at f >= the popped f. With branching often 0 the
    // frontier regularly drains mid-run; it then refills from the last pop.
    std::uint64_t children = lcg.next(4);
    if (step.empty() && children == 0) children = 1;
    for (std::uint64_t c = 0; c < children; ++c) {
      const Cost f = top_f + static_cast<Cost>(lcg.next(12));
      const Cost g = f - static_cast<Cost>(lcg.next(5));
      ASSERT_NO_FATAL_FAILURE(step.push(f, g));
    }
  }
  ASSERT_GT(pops, 1000u) << "workload died early; reseed the LCG";
  ASSERT_NO_FATAL_FAILURE(step.drain());
}

TEST(FrontierQueueTest, DijkstraShapedWorkloadPopsSortedOrder) {
  pop_dijkstra_shaped_workload<Duration>();
  pop_dijkstra_shaped_workload<double>();
}

/// One frontier operation of a scripted search: a push of (f, g) for a
/// fresh node, or a pop (f < 0).
struct ScriptStep {
  Duration f;
  Duration g;
};
constexpr ScriptStep kPop{-1, -1};

template <typename Cost>
void replay_scripts() {
  // Small edge cases on one arena: a large first key followed by a fresh
  // search far below it, pushes in descending key order before the first
  // pop, and a frontier that drains in the middle of each expansion.
  const std::vector<std::vector<ScriptStep>> searches = {
      {{900, 880}, kPop, {900, 890}, {903, 895}, kPop, {905, 900}},
      {{3, 0}, kPop, {4, 1}, {3, 2}},
      {{50, 0}, {40, 0}, {30, 0}, {20, 0}, {20, 5}, kPop, {20, 9}, {45, 2},
       kPop, kPop, {30, 7}, kPop},
      {{10, 0}, kPop, {14, 1}, {12, 2}, {11, 3}, kPop, kPop, kPop, {14, 4},
       {20, 6}, {16, 5}, kPop, kPop, {16, 7}, kPop, kPop},
  };
  Lockstep<Cost> step;
  for (const std::vector<ScriptStep>& script : searches) {
    step.begin();
    for (const ScriptStep& s : script) {
      typename Lockstep<Cost>::Entry popped;
      if (s.f < 0) {
        ASSERT_NO_FATAL_FAILURE(step.pop(popped));
      } else {
        ASSERT_NO_FATAL_FAILURE(
            step.push(static_cast<Cost>(s.f), static_cast<Cost>(s.g)));
      }
    }
    ASSERT_NO_FATAL_FAILURE(step.drain());
  }
}

TEST(FrontierQueueTest, ScriptedEdgeCasesPopSortedOrder) {
  replay_scripts<Duration>();
  replay_scripts<double>();
}

template <typename Cost>
void pop_pushes_below_last_pop(std::uint64_t seed) {
  // Weighted A* (heuristic_weight > 1) orders by g + w*h with an
  // inconsistent bound, so a child's key can fall below its parent's: pushes
  // land below the last pop. Three searches on one arena, each pushing 2 500
  // entries: random children of random (g, h).
  Lockstep<Cost> step;
  Lcg lcg{seed};
  std::uint32_t below_last_pop = 0;
  for (int search = 0; search < 3; ++search) {
    step.begin();
    ASSERT_NO_FATAL_FAILURE(step.push(0, 0));
    while (!step.empty() && step.pushed() < 2500) {
      typename Lockstep<Cost>::Entry top;
      ASSERT_NO_FATAL_FAILURE(step.pop(top));
      const Cost top_f = std::get<0>(top);
      const Cost top_g = std::get<1>(top);
      std::uint64_t children = lcg.next(5);
      if (step.empty() && children == 0) children = 2;
      for (std::uint64_t c = 0; c < children; ++c) {
        const Cost g = top_g + 1 + static_cast<Cost>(lcg.next(10));
        const Cost h = static_cast<Cost>(lcg.next(40));
        // w = 1.5: exact halves in double, truncated for integer costs.
        const Cost f = g + h * 3 / 2;
        below_last_pop += f < top_f;
        ASSERT_NO_FATAL_FAILURE(step.push(f, g));
      }
    }
    ASSERT_NO_FATAL_FAILURE(step.drain());
  }
  EXPECT_GT(below_last_pop, 1000u) << "script rarely pushed below a pop";
}

TEST(FrontierQueueTest, SeededScriptPushingBelowTheLastPopPopsSortedOrder) {
  for (const std::uint64_t seed : {7u, 31u, 2024u}) {
    SCOPED_TRACE(seed);
    pop_pushes_below_last_pop<Duration>(seed);
    pop_pushes_below_last_pop<double>(seed);
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
