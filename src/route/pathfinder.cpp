#include "route/pathfinder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "route/heuristic.hpp"
#include "route/search_arena.hpp"

namespace qspr {

namespace {

/// Present-congestion penalty factor added per unit of over-use in the first
/// iteration; it grows x1.5 per iteration (the standard PathFinder schedule).
constexpr double kPresentFactor = 0.6;
/// History penalty accumulated per iteration of over-use.
constexpr double kHistoryIncrement = 0.25;
/// Present-factor ceiling under adaptive_schedule. 64 is above the factor
/// any converging bench suite ever reaches (iteration 12 of the x1.5
/// schedule), so converging negotiations are bit-identical with or without
/// the cap.
constexpr double kPresentFactorMax = 64.0;
/// Consecutive non-improving iterations on a *saturated plateau* (total
/// excess comparable to the net count) before the loop reports
/// non-convergence instead of burning the iteration cap; small stubborn
/// tails are instead pressed with a ramped history increment for six times
/// as long. Only applies under adaptive_schedule.
constexpr int kStagnationLimit = 3;

ResourceRef resource_of_node(const RouteNode& node) {
  if (node.is_trap) return ResourceRef{};
  if (node.junction.is_valid()) return ResourceRef::junction(node.junction);
  if (node.segment.is_valid()) return ResourceRef::segment(node.segment);
  return ResourceRef{};
}

/// Negotiated cost of stepping across `edge` into node `v`. Callers prune
/// edges into non-target traps before pricing (traps are endpoints only).
double edge_weight(const RouteNode& v, const RouteEdge& edge,
                   const TechnologyParams& params,
                   const CongestionLedger& ledger, bool turn_aware) {
  if (edge.is_turn) {
    return turn_aware ? static_cast<double>(params.t_turn) : 0.1;
  }
  if (v.is_trap) return static_cast<double>(params.t_move);
  const ResourceRef resource = resource_of_node(v);
  double penalty = 1.0;
  if (resource.index >= 0) {
    penalty = ledger.entering_penalty(ledger.index_of(resource));
  }
  return static_cast<double>(params.t_move) * penalty;
}

}  // namespace

void NodeWeightCache::build(const RoutingGraph& graph,
                            const CongestionLedger& ledger) {
  node_resource.assign(graph.node_count(), -1);
  node_weight.assign(graph.node_count(), 0.0);
  // Keep the inner vectors' capacity across rebuilds (the common case is
  // one scratch serving the same graph for many batches).
  if (resource_nodes.size() < ledger.size()) {
    resource_nodes.resize(ledger.size());
  }
  for (auto& nodes : resource_nodes) nodes.clear();
  for (std::size_t n = 0; n < graph.node_count(); ++n) {
    const ResourceRef resource =
        resource_of_node(graph.node(RouteNodeId::from_index(n)));
    if (resource.index < 0) continue;
    const std::size_t index = ledger.index_of(resource);
    node_resource[n] = static_cast<std::int32_t>(index);
    resource_nodes[index].push_back(static_cast<std::uint32_t>(n));
  }
}

void NodeWeightCache::refresh_all(const CongestionLedger& ledger,
                                  double t_move) {
  t_move_ = t_move;
  for (std::size_t n = 0; n < node_weight.size(); ++n) {
    const std::int32_t index = node_resource[n];
    node_weight[n] =
        index < 0 ? t_move
                  : t_move * ledger.entering_penalty(
                                 static_cast<std::size_t>(index));
  }
}

void NodeWeightCache::refresh_resource(const CongestionLedger& ledger,
                                       std::size_t index) {
  const double weight = t_move_ * ledger.entering_penalty(index);
  for (const std::uint32_t n : resource_nodes[index]) {
    node_weight[n] = weight;
  }
}

namespace {

/// One negotiated-cost Dijkstra — the reference engine. Runs over the shared
/// SearchArena (pushing f = g, so the frontier degenerates to plain
/// Dijkstra order) instead of allocating O(n) dist/parent vectors per query:
/// equivalence benchmarks against the optimized engine now compare search
/// strategy, not allocator noise. Pop order and results are unchanged — the
/// old priority_queue ordered by (cost, node) and the arena frontier orders
/// by (f, g, node) = (cost, cost, node), the same total order.
std::optional<std::vector<RouteNodeId>> route_one_reference(
    const RoutingGraph& graph, const TechnologyParams& params,
    const CongestionLedger& ledger, bool turn_aware, TrapId from, TrapId to,
    SearchArena<double>& arena, long long& nodes_settled) {
  const RouteNodeId source = graph.trap_node(from);
  const RouteNodeId target = graph.trap_node(to);
  if (source == target) return std::vector<RouteNodeId>{source};

  arena.begin(graph.node_count());
  arena.relax(source, 0.0, RouteNodeId::invalid());
  arena.heap_push(0.0, 0.0, source);

  bool reached = false;
  while (!arena.heap_empty()) {
    const auto entry = arena.heap_pop();
    // Candidates are pushed only on strict improvement, so a stale entry's g
    // can only exceed the recorded dist: `!=` is the old `>` staleness test.
    if (entry.g != arena.dist(entry.node)) continue;
    ++nodes_settled;
    if (entry.node == target) {
      reached = true;
      break;
    }

    for (const RouteEdge& edge : graph.edges(entry.node)) {
      const RouteNode& v = graph.node(edge.to);
      if (!edge.is_turn && v.is_trap && v.trap != to) {
        continue;  // traps are endpoints only
      }
      const double weight = edge_weight(v, edge, params, ledger, turn_aware);
      const double candidate = entry.g + weight;
      if (candidate < arena.dist(edge.to)) {
        arena.relax(edge.to, candidate, entry.node);
        arena.heap_push(candidate, candidate, edge.to);
      }
    }
  }
  if (!reached) return std::nullopt;

  std::vector<RouteNodeId> path;
  for (RouteNodeId node = target; node.is_valid(); node = arena.parent(node)) {
    path.push_back(node);
    if (node == source) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// Physics of one optimized search: base move/turn selection costs plus the
/// bounded-suboptimality weight.
struct SearchCosts {
  double t_move = 0.0;
  double turn_cost = 0.0;
  /// Heuristic inflation w >= 1: the frontier is ordered by g + w*h, so the
  /// returned path costs <= w * optimal. Exactly 1.0 leaves every f-value
  /// bit-identical to the unweighted search.
  double weight = 1.0;
};

/// One negotiated-cost A* over the arena — the optimized engine. The grid
/// lower bound focuses the expansion toward the target; the arena makes the
/// per-query state O(1) to reset, and the weight cache makes pricing an edge
/// one array read.
/// Returns false when the target is unreachable; on success fills `path`
/// source-to-target.
bool route_one_astar(const RoutingGraph& graph,
                     const NodeWeightCache& weights, const SearchCosts& costs,
                     TrapId from, TrapId to, SearchArena<double>& arena,
                     std::vector<RouteNodeId>& path,
                     long long& nodes_settled) {
  path.clear();
  const RouteNodeId source = graph.trap_node(from);
  const RouteNodeId target = graph.trap_node(to);
  if (source == target) {
    path.push_back(source);
    return true;
  }

  const Position target_cell = graph.node(target).cell;
  const auto bound = [&](const RouteNode& node) {
    return grid_lower_bound(node, target_cell, costs.t_move,
                            costs.turn_cost) *
           costs.weight;
  };

  arena.begin(graph.node_count());
  arena.relax(source, 0.0, RouteNodeId::invalid());
  arena.heap_push(bound(graph.node(source)), 0.0, source);

  bool reached = false;
  while (!arena.heap_empty()) {
    const auto entry = arena.heap_pop();
    // Start the next pop's node state + adjacency row on their way while
    // this entry expands; purely a latency hint, never affects the search.
    const RouteNodeId ahead = arena.heap_peek_node();
    arena.prefetch(ahead);
    graph.prefetch_edges(ahead);
    // Pushes happen only on strict improvement, so at most one live entry
    // per node carries g == dist: the comparison alone rejects stale
    // entries, no settled bitmap traffic needed on the hot path.
    if (entry.g != arena.dist(entry.node)) continue;
    ++nodes_settled;
    if (entry.node == target) {
      reached = true;
      break;
    }

    for (const RouteEdge& edge : graph.edges(entry.node)) {
      // Traps are endpoints only; node_resource < 0 identifies them without
      // loading the node record on every edge visit.
      if (!edge.is_turn && edge.to != target &&
          weights.node_resource[edge.to.index()] < 0) {
        continue;
      }
      const double weight = edge.is_turn
                                ? costs.turn_cost
                                : weights.node_weight[edge.to.index()];
      const double candidate = entry.g + weight;
      if (candidate < arena.dist(edge.to)) {
        arena.relax(edge.to, candidate, entry.node);
        arena.heap_push(candidate + bound(graph.node(edge.to)), candidate,
                        edge.to);
      }
    }
  }
  if (!reached) return false;

  for (RouteNodeId node = target; node.is_valid(); node = arena.parent(node)) {
    path.push_back(node);
    if (node == source) break;
  }
  std::reverse(path.begin(), path.end());
  return true;
}

/// Distinct dense resource indices of a path, deduped in O(P) with the
/// stamped set; the result doubles as the net's rip-up (release) set and as
/// the overlap set the dirty-net worklist intersects with the over-use delta.
void collect_resources(const RoutedPath& path, const CongestionLedger& ledger,
                       StampedSet& membership,
                       std::vector<std::uint32_t>& indices) {
  indices.clear();
  membership.reset(ledger.size());
  for (const ResourceUse& use : path.resource_uses) {
    const std::size_t index = ledger.index_of(use.resource);
    if (membership.insert(index)) {
      indices.push_back(static_cast<std::uint32_t>(index));
    }
  }
}

/// Provable lower bound on the residual capacity excess of any routing of
/// `nets`: every moving net must cross a port resource of each endpoint
/// trap, so a trap whose endpoint demand exceeds its total port capacity
/// forces that much over-use no matter how paths are negotiated. Per-trap
/// excesses are summed while their port sets stay pairwise disjoint (a sum
/// over shared ports could double-count capacity — overlapping traps fall
/// back to the max single-trap excess), which is what lets the negotiation
/// recognise "stuck at the structural floor" instead of burning the
/// iteration cap when several distinct traps are over-demanded.
int structural_excess_floor(const RoutingGraph& graph,
                            const std::vector<NetRequest>& nets,
                            const CongestionLedger& ledger,
                            StampedSet& claimed_ports,
                            std::vector<int>& trap_demand,
                            std::vector<std::uint32_t>& structural) {
  trap_demand.assign(graph.fabric().trap_count(), 0);
  structural.clear();
  for (const NetRequest& net : nets) {
    if (net.from == net.to) continue;
    ++trap_demand[net.from.index()];
    ++trap_demand[net.to.index()];
  }
  int max_single = 0;
  int disjoint_sum = 0;
  std::vector<std::uint32_t> ports;
  claimed_ports.reset(ledger.size());
  for (std::size_t t = 0; t < trap_demand.size(); ++t) {
    if (trap_demand[t] <= 1) continue;  // a single net can always fit
    int port_capacity = 0;
    ports.clear();
    for (const RouteEdge& edge :
         graph.edges(graph.trap_node(TrapId::from_index(t)))) {
      if (edge.is_turn) continue;
      const ResourceRef resource = resource_of_node(graph.node(edge.to));
      if (resource.index < 0) continue;
      const auto index =
          static_cast<std::uint32_t>(ledger.index_of(resource));
      if (std::find(ports.begin(), ports.end(), index) == ports.end()) {
        port_capacity += ledger.capacity(index);
        ports.push_back(index);
      }
    }
    if (trap_demand[t] <= port_capacity) continue;
    const int excess = trap_demand[t] - port_capacity;
    max_single = std::max(max_single, excess);
    bool overlaps = false;
    for (const std::uint32_t port : ports) {
      overlaps = overlaps || claimed_ports.contains(port);
    }
    if (!overlaps) {
      disjoint_sum += excess;
      for (const std::uint32_t port : ports) claimed_ports.insert(port);
    }
    structural.insert(structural.end(), ports.begin(), ports.end());
  }
  return std::max(max_single, disjoint_sum);
}

}  // namespace

PathFinderResult route_nets_negotiated(const RoutingGraph& graph,
                                       const TechnologyParams& params,
                                       const std::vector<NetRequest>& nets,
                                       const PathFinderOptions& options,
                                       PathFinderScratch& scratch) {
  params.validate();
  require(options.max_iterations >= 1, "need at least one iteration");
  require(std::isfinite(options.heuristic_weight) &&
              options.heuristic_weight >= 1.0,
          "heuristic_weight must be finite and >= 1 (1.0 is the exact "
          "search)");

  const Fabric& fabric = graph.fabric();
  CongestionLedger ledger(fabric.segment_count(), fabric.junction_count(),
                          params.channel_capacity, params.junction_capacity);
  PathFinderResult result;
  result.paths.resize(nets.size());

  const bool optimized = options.engine == PathFinderEngine::AStarArena;
  // Arena state shared across all nets and all negotiation iterations (and,
  // via the caller-owned scratch, across successive batches on this thread).
  SearchArena<double>& arena = scratch.arena;
  StampedSet& membership = scratch.membership;
  std::vector<RouteNodeId>& node_buffer = scratch.node_buffer;
  // Per-net occupancy sets (dense resource indices): computed once per
  // reroute, reused for the rip-up release of the net's next re-route and
  // for the dirty-net overlap test.
  std::vector<std::vector<std::uint32_t>>& net_resources =
      scratch.net_resources;
  net_resources.assign(nets.size(), {});
  std::vector<std::uint8_t>& dirty = scratch.net_dirty;
  dirty.assign(nets.size(), 1);  // every net routes in iteration 1

  if (options.adaptive_schedule) {
    std::vector<std::uint32_t> structural;
    result.min_feasible_excess = structural_excess_floor(
        graph, nets, ledger, membership, scratch.trap_demand, structural);
    ledger.mark_structural(structural);
  }

  const SearchCosts costs{
      static_cast<double>(params.t_move),
      options.turn_aware ? static_cast<double>(params.t_turn) : 0.1,
      options.heuristic_weight};
  NodeWeightCache& weights = scratch.weights;
  if (optimized) weights.build(graph, ledger);

  // Rips net i up, re-routes it against the *other* nets' present
  // congestion plus the history costs, and re-inserts it. At iteration 1
  // every occupancy set is empty, so the rip is a no-op.
  const auto reroute_net = [&](std::size_t i) {
    for (const std::uint32_t index : net_resources[i]) {
      ledger.release(index);
      if (optimized) weights.refresh_resource(ledger, index);
    }
    ++result.searches_performed;
    bool routed = false;
    if (optimized) {
      routed = route_one_astar(graph, weights, costs, nets[i].from,
                               nets[i].to, arena, node_buffer,
                               result.nodes_settled);
    } else {
      auto nodes = route_one_reference(graph, params, ledger,
                                       options.turn_aware, nets[i].from,
                                       nets[i].to, arena,
                                       result.nodes_settled);
      routed = nodes.has_value();
      if (routed) node_buffer = std::move(*nodes);
    }
    if (!routed) {
      throw RoutingError("PathFinder: net " + std::to_string(i) +
                         " has no route on this fabric");
    }
    result.paths[i].nodes = node_buffer;
    lower_path(graph, params, result.paths[i]);
    collect_resources(result.paths[i], ledger, membership, net_resources[i]);
    for (const std::uint32_t index : net_resources[i]) {
      ledger.acquire(index);
      if (optimized) weights.refresh_resource(ledger, index);
    }
  };

  double present_factor = kPresentFactor;
  double history_increment = kHistoryIncrement;
  // Fewest over-used resources seen so far; partial rip-up escalates to a
  // full sweep when an iteration fails to improve on it.
  int best_overused = std::numeric_limits<int>::max();
  // Stagnation detector: consecutive iterations without any reduction of the
  // total capacity excess.
  int best_excess = std::numeric_limits<int>::max();
  int stagnant_iterations = 0;
  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    result.iterations_used = iteration;
    ledger.begin_iteration(present_factor);
    if (optimized) {
      // History charges and the present-factor step repriced (potentially)
      // every loaded resource: refresh the whole weight cache once per
      // iteration, then keep it in sync per ripped/re-inserted resource.
      weights.refresh_all(ledger, costs.t_move);
    }
    // With partial_ripup off every net is dirty every iteration (the
    // original full-sweep PathFinder loop).
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (dirty[i]) reroute_net(i);
    }

    // Charge history on the over-use delta set (no full-table sweep).
    const CongestionLedger::OveruseSummary summary =
        ledger.charge_history(history_increment);
    result.overused_resources = summary.overused;
    result.max_overuse = summary.max_overuse;
    result.total_excess = summary.total_excess;
    if (summary.overused == 0) {
      result.converged = true;
      break;
    }
    if (options.adaptive_schedule) {
      if (summary.total_excess <= result.min_feasible_excess) {
        // Residual over-use has reached the provable structural floor: no
        // negotiation can do better, stop and report instead of burning the
        // remaining iterations on ever-costlier searches.
        break;
      }
      if (summary.total_excess < best_excess) {
        // Only a clear improvement resets the stagnation counter: on a
        // saturated plateau the excess wobbles by +-1 around its floor, and
        // counting that noise as progress keeps the loop flooding for the
        // whole iteration cap.
        const int margin = std::max(1, best_excess / 16);
        if (best_excess - summary.total_excess >= margin) {
          stagnant_iterations = 0;
          history_increment = kHistoryIncrement;
        }
        best_excess = summary.total_excess;
      } else {
        ++stagnant_iterations;
        // A stubborn *tail* (a handful of excess units) yields to ramped
        // permanent pressure: double the history increment until the
        // plateau breaks. Tail iterations are usually cheap — partial
        // rip-up only re-routes the few offending nets — so the ramp gets
        // several multiples of the plateau patience; but a tail that
        // survives even a fully-saturated ramp (e.g. structural over-use
        // the floor under-approximated across overlapping port sets) is
        // stuck, and keeping at it would burn the rest of the cap on
        // escalated full sweeps.
        const int tail =
            std::max(4, static_cast<int>(nets.size()) / 2);
        if (summary.total_excess <= tail) {
          history_increment =
              std::min(history_increment * 2.0, kHistoryIncrement * 64.0);
          if (stagnant_iterations >= 6 * kStagnationLimit) break;
        } else if (stagnant_iterations >= kStagnationLimit) {
          // A saturated *plateau* (excess comparable to the net count) is
          // the signature of regional over-subscription: ramping only
          // destabilises it, and every extra iteration is a whole-fabric
          // flood per net. Stop and report the residual.
          break;
        }
      }
    }
    if (options.partial_ripup) {
      if (summary.overused >= best_overused) {
        // Stagnation: the dirty subset is ping-ponging among the contested
        // corridors while clean nets pin the alternatives. Escalate to one
        // full rip-up sweep so the whole net set renegotiates, then resume
        // partial sweeps.
        std::fill(dirty.begin(), dirty.end(), std::uint8_t{1});
      } else {
        // Next iteration's worklist: exactly the nets whose current path
        // crosses a *negotiable* over-subscribed resource. Structural
        // over-use (endpoint port demand above capacity) cannot be routed
        // away, so the nets forced through it are left settled instead of
        // churning the whole region every iteration. Any negotiable
        // overused resource is held by at least one net, so the worklist
        // can never stall while removable over-use remains.
        for (std::size_t i = 0; i < nets.size(); ++i) {
          dirty[i] = 0;
          for (const std::uint32_t index : net_resources[i]) {
            if (ledger.is_overused(index) && !ledger.is_structural(index)) {
              dirty[i] = 1;
              break;
            }
          }
        }
      }
      best_overused = std::min(best_overused, summary.overused);
    }
    present_factor *= 1.5;  // standard PathFinder schedule
    if (options.adaptive_schedule) {
      // Cap the schedule once saturated: beyond the ceiling, the (ramped)
      // history carries the pressure, and edge weights stay commensurate
      // with the admissible distance bound instead of drowning it.
      // Converging runs never reach the ceiling.
      present_factor = std::min(present_factor, kPresentFactorMax);
    }
  }

  for (const RoutedPath& path : result.paths) {
    result.total_delay += path.total_delay();
  }
  return result;
}

PathFinderResult route_nets_negotiated(const RoutingGraph& graph,
                                       const TechnologyParams& params,
                                       const std::vector<NetRequest>& nets,
                                       const PathFinderOptions& options) {
  PathFinderScratch scratch;
  return route_nets_negotiated(graph, params, nets, options, scratch);
}

}  // namespace qspr
