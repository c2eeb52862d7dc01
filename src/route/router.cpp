#include "route/router.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "route/heuristic.hpp"

namespace qspr {

Router::Router(const RoutingGraph& graph, const TechnologyParams& params,
               RouterOptions options)
    : graph_(&graph), params_(params), options_(options) {
  params_.validate();
}

std::optional<Duration> Router::search(RouteNodeId from, RouteNodeId to,
                                       const CongestionState& congestion,
                                       SearchArena<Duration>& arena,
                                       TrapId allowed_trap,
                                       std::vector<RouteNodeId>& nodes) const {
  require(from.is_valid() && to.is_valid(), "invalid route endpoints");
  if (from == to) {
    nodes.assign(1, from);
    return Duration{0};
  }

  const Position target_cell = graph_->node(to).cell;
  const TrapId target_trap = graph_->node(to).trap;
  const Duration turn_cost = options_.turn_aware ? params_.t_turn : 0;

  arena.begin(graph_->node_count());
  arena.relax(from, 0, RouteNodeId::invalid());
  arena.heap_push(
      grid_lower_bound(graph_->node(from), target_cell, params_.t_move,
                       turn_cost),
      0, from);

  while (!arena.heap_empty()) {
    const auto entry = arena.heap_pop();
    // Start the next pop's node state + adjacency row on their way while we
    // expand this entry; purely a latency hint, never affects the search.
    const RouteNodeId ahead = arena.heap_peek_node();
    arena.prefetch(ahead);
    graph_->prefetch_edges(ahead);
    if (arena.settled(entry.node) || entry.g != arena.dist(entry.node)) {
      continue;
    }
    arena.settle(entry.node);

    if (entry.node == to) {
      nodes.clear();
      for (RouteNodeId n = to; n.is_valid(); n = arena.parent(n)) {
        nodes.push_back(n);
        if (n == from) break;
      }
      std::reverse(nodes.begin(), nodes.end());
      return entry.g;
    }

    for (const RouteEdge& edge : graph_->edges(entry.node)) {
      const RouteNode& v = graph_->node(edge.to);

      Duration weight = 0;
      if (edge.is_turn) {
        weight = turn_cost;
      } else if (v.is_trap) {
        // Traps are endpoints only, never corridors.
        if (v.trap != target_trap && v.trap != allowed_trap) continue;
        if (edge.to != to) continue;
        weight = params_.t_move;
      } else if (v.junction.is_valid()) {
        if (at_capacity(ResourceRef::Kind::Junction,
                        congestion.junction_load(v.junction))) {
          continue;
        }
        weight = params_.t_move;
      } else if (v.segment.is_valid()) {
        const int load = congestion.segment_load(v.segment);
        if (at_capacity(ResourceRef::Kind::Segment, load)) continue;
        weight = params_.t_move * static_cast<Duration>(load + 1);
      } else {
        weight = params_.t_move;
      }

      const Duration candidate = entry.g + weight;
      if (candidate < arena.dist(edge.to)) {
        arena.relax(edge.to, candidate, entry.node);
        arena.heap_push(
            candidate + grid_lower_bound(v, target_cell, params_.t_move,
                                         turn_cost),
            candidate, edge.to);
      }
    }
  }
  return std::nullopt;
}

std::optional<Router::NodePath> Router::shortest_node_path(
    RouteNodeId from, RouteNodeId to, const CongestionState& congestion,
    SearchArena<Duration>& arena, TrapId allowed_trap) const {
  NodePath path;
  const auto cost =
      search(from, to, congestion, arena, allowed_trap, path.nodes);
  if (!cost.has_value()) return std::nullopt;
  path.cost = *cost;
  return path;
}

bool Router::route_trap_to_trap(TrapId from, TrapId to,
                                const CongestionState& congestion,
                                SearchArena<Duration>& arena, RoutedPath& path,
                                Duration* selection_cost) const {
  const RouteNodeId source = graph_->trap_node(from);
  const RouteNodeId target = graph_->trap_node(to);
  // Exact fast fail. A trap's graph neighbours are its port cells, which are
  // channel cells, and the search never passes through a trap. So every
  // trap-to-trap path ends by entering a port cell through a move edge the
  // search capacity-checks (a turn only changes orientation inside a cell
  // already entered). When every port's segment is full no path exists, and
  // the search would flood the whole reachable fabric just to find that out.
  const EdgeSpan ports = graph_->edges(target);
  const bool enclosed =
      from != to &&
      std::all_of(ports.begin(), ports.end(), [&](const RouteEdge& port) {
        return at_capacity(
            ResourceRef::Kind::Segment,
            congestion.segment_load(graph_->node(port.to).segment));
      });
  const std::optional<Duration> cost =
      enclosed ? std::nullopt
               : search(source, target, congestion, arena, from, path.nodes);
  if (!cost.has_value()) {
    path.nodes.clear();
    path.steps.clear();
    path.resource_uses.clear();
    return false;
  }
  if (selection_cost != nullptr) *selection_cost = *cost;
  lower_path(*graph_, params_, path);
  return true;
}

std::optional<RoutedPath> Router::route_trap_to_trap(
    TrapId from, TrapId to, const CongestionState& congestion,
    SearchArena<Duration>& arena, Duration* selection_cost) const {
  RoutedPath path;
  if (!route_trap_to_trap(from, to, congestion, arena, path, selection_cost)) {
    return std::nullopt;
  }
  return path;
}

}  // namespace qspr
